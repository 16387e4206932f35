import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import flip, state_of

from qcheque.bits import BitString, frame_fields
from qcheque.qowf import (
    amount_register_amplitudes,
    angles_to_amplitudes,
    auth_state_amplitudes,
    derive_angles,
    prepare_amount_register,
    prepare_auth_state,
)
from qcheque.sim import Owner, World

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_angles.json").read_text())


def test_derive_angles_match_golden_vectors():
    """Frozen outputs of an independent reimplementation of the
    frame -> SHA-256 counter stream -> arccos(sqrt(u)) pipeline."""
    for case in GOLDEN["derive"]:
        got = derive_angles(bytes.fromhex(case["data_hex"]), case["count"])
        for (gt, gp), (wt, wp) in zip(got, case["angles"]):
            assert gt == pytest.approx(wt, abs=1e-12)
            assert gp == pytest.approx(wp, abs=1e-12)


def _chunked_angles(data, count):
    """`derive_angles` one 16-byte chunk at a time, with `int.from_bytes`
    on each half."""
    stream = b"".join(hashlib.sha256(data + c.to_bytes(4, "big")).digest()
                      for c in range((16 * count + 31) // 32))
    angles = []
    for j in range(count):
        chunk = stream[16 * j : 16 * (j + 1)]
        u1 = int.from_bytes(chunk[:8], "big") / float(2**64)
        u2 = int.from_bytes(chunk[8:], "big") / float(2**64)
        angles.append((math.acos(math.sqrt(u1)), 2.0 * math.pi * u2))
    return angles


def test_derive_angles_match_the_chunked_form_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(500):
        data = rng.bytes(int(rng.integers(0, 100)))
        count = int(rng.integers(1, 20))
        assert derive_angles(data, count) == _chunked_angles(data, count)


def _amount_state_per_index(nonce, amount, index):
    """Amount state `index` derived under its own frame, one field per
    call: the tag, nonce, amount and 32-bit index, then one qubit."""
    data = frame_fields(BitString.from_text("amount-state"), nonce, amount, BitString.from_int(index, 32))
    (theta, phi), = derive_angles(data, 1)
    return angles_to_amplitudes(theta, phi)


def test_amount_register_matches_the_per_index_frame_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(500):
        nonce = BitString.random(rng, int(rng.integers(1, 300)))
        amount = BitString.from_text(str(int(rng.integers(0, 10**6))))
        count = int(rng.integers(1, 10))
        want = [_amount_state_per_index(nonce, amount, i) for i in range(1, count + 1)]
        assert amount_register_amplitudes(nonce, amount, count) == want


def test_auth_state_matches_golden_vector():
    a = GOLDEN["auth"]
    got = auth_state_amplitudes(
        BitString.from_text(a["key_text"]),
        BitString.from_text(a["account_text"]),
        BitString.from_binary_text(a["nonce_bits"]),
        BitString.from_text(a["amount_text"]),
        a["num_qubits"],
    )
    for (g0, g1), (r0, i0, r1, i1) in zip(got, a["pairs"]):
        assert g0 == pytest.approx(complex(r0, i0), abs=1e-12)
        assert g1 == pytest.approx(complex(r1, i1), abs=1e-12)


def test_amount_state_matches_golden_vector():
    m = GOLDEN["amount"]
    g0, g1 = amount_register_amplitudes(
        BitString.from_binary_text(m["nonce_bits"]),
        BitString.from_text(m["amount_text"]),
        m["index"],
    )[m["index"] - 1]
    r0, i0, r1, i1 = m["pair"]
    assert g0 == pytest.approx(complex(r0, i0), abs=1e-12)
    assert g1 == pytest.approx(complex(r1, i1), abs=1e-12)


def test_angles_stay_in_range():
    angles = derive_angles(b"range-check", 200)
    for theta, phi in angles:
        assert 0.0 <= theta <= np.pi / 2
        assert 0.0 <= phi < 2 * np.pi


def test_amplitudes_are_normalized():
    for theta, phi in derive_angles(b"norm-check", 50):
        a0, a1 = angles_to_amplitudes(theta, phi)
        assert abs(a0) ** 2 + abs(a1) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_derivation_is_deterministic():
    assert derive_angles(b"again", 5) == derive_angles(b"again", 5)


def test_every_field_changes_the_state():
    key = BitString.from_text("key")
    ident = BitString.from_text("alice")
    nonce = BitString.from_int(9, 16)
    amount = BitString.from_text("42")
    base = auth_state_amplitudes(key, ident, nonce, amount, 2)
    variants = [
        auth_state_amplitudes(flip(key, 0), ident, nonce, amount, 2),
        auth_state_amplitudes(key, BitString.from_text("alicf"), nonce, amount, 2),
        auth_state_amplitudes(key, ident, flip(nonce, 3), amount, 2),
        auth_state_amplitudes(key, ident, nonce, BitString.from_text("43"), 2),
    ]
    for other in variants:
        assert base != other


def test_amount_states_differ_per_index():
    nonce = BitString.from_int(77, 32)
    amount = BitString.from_text("5")
    states = set(amount_register_amplitudes(nonce, amount, 8))
    assert len(states) == 8


def test_amount_index_must_be_positive():
    # a register of count states covers indices 1 to count, each 32 bits
    for count in (0, -1, 2**32):
        with pytest.raises(ValueError, match="count"):
            amount_register_amplitudes(BitString.from_int(1, 8), BitString.from_text("1"), count)


def test_domain_tags_separate_the_two_preparations():
    """An amount state can never collide with an auth qubit even when the
    framed classical fields happen to agree."""
    nonce = BitString.from_int(3, 32)
    amount = BitString.from_text("9")
    amount_state, = amount_register_amplitudes(nonce, amount, 1)
    auth_like = auth_state_amplitudes(nonce, amount, BitString.from_int(1, 32), nonce, 1)
    assert amount_state != auth_like[0]


def test_prepare_allocates_expected_register():
    world = World(seed=4)
    key = BitString.from_text("key")
    ident = BitString.from_text("alice")
    nonce = BitString.from_int(12, 16)
    amount = BitString.from_text("8")
    register = prepare_auth_state(world, key, ident, nonce, amount, 3, owner=Owner.BANK)
    assert len(register) == 3
    assert all(q.owner is Owner.BANK for q in register)
    want = auth_state_amplitudes(key, ident, nonce, amount, 3)
    for q, (a0, a1) in zip(register, want):
        assert abs(np.vdot(state_of(world, [q]), [a0, a1])) == pytest.approx(1.0, abs=1e-12)

    amounts = prepare_amount_register(world, nonce, amount, 2)
    assert [q.qid for q in amounts] == [3, 4]
    for q, (a0, a1) in zip(amounts, amount_register_amplitudes(nonce, amount, 2)):
        assert abs(np.vdot(state_of(world, [q]), [a0, a1])) == pytest.approx(1.0, abs=1e-12)
        assert q.owner is Owner.ALICE


def test_angle_distribution_is_roughly_uniform_on_sphere():
    # cos^2(theta) should be uniform on [0, 1]: check the mean of |a0|^2
    angles = derive_angles(b"sphere", 4000)
    mean = np.mean([np.cos(t) ** 2 for t, _ in angles])
    assert mean == pytest.approx(0.5, abs=0.03)
