"""End-to-end issue/sign/deposit behaviour, ledger rules, persistence."""

import json
from dataclasses import asdict, replace

import pytest
from helpers import collapse_widths, flip, messages_in_session, product_widths

from qcheque.bits import BitString
from qcheque.protocol import (
    AcceptancePolicy,
    Bank,
    QuantumCheque,
    RejectReason,
    SchemeParams,
    encode_amount,
    sign_cheque,
)
from qcheque.qowf import prepare_auth_state
from qcheque.sim import Owner, World

SMALL = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=64, serial_bits=64)


def issue(seed=0, params=SMALL, units=42, account="alice"):
    world = World(seed=seed)
    bank = Bank()
    book, record = bank.gen_account(world, account, params)
    cheque = sign_cheque(world, book, encode_amount(units))
    return world, bank, book, record, cheque


# ---------------------------------------------------------------- policy


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError):
        AcceptancePolicy(mode="lenient")


@pytest.mark.parametrize("kappa", [0.5, 0.0, 1.2, -0.1])
def test_policy_rejects_out_of_range_kappa(kappa):
    with pytest.raises(ValueError):
        AcceptancePolicy(kappa2=kappa)


def test_strict_policy_needs_every_pass():
    policy = AcceptancePolicy(mode="strict")
    assert policy.decide([True, True, True])
    assert not policy.decide([True, False, True])
    assert policy.decide([])


def test_threshold_policy_counts_fractions():
    policy = AcceptancePolicy(mode="threshold", kappa2=0.75)
    assert policy.decide([True, True, True, False])   # 3/4 == kappa2
    assert not policy.decide([True, True, False, False])
    assert policy.decide([])


def test_policy_json_round_trip():
    policy = AcceptancePolicy(mode="threshold", kappa2=0.9)
    assert AcceptancePolicy.from_json(asdict(policy)) == policy


# ---------------------------------------------------------------- params


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ghz_triples": 0},
        {"auth_qubits": 0},
        {"key_bits": 32},
        {"serial_bits": 32},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SchemeParams(**kwargs)


def test_short_keys_need_explicit_opt_in():
    params = SchemeParams(key_bits=8, allow_insecure_key_bits=True)
    assert params.key_bits == 8
    with pytest.raises(ValueError):
        SchemeParams(key_bits=0, allow_insecure_key_bits=True)


def test_params_json_round_trip():
    params = SchemeParams(
        ghz_triples=3,
        auth_qubits=5,
        key_bits=64,
        serial_bits=64,
        policy=AcceptancePolicy(mode="threshold", kappa2=0.8),
    )
    assert SchemeParams.from_json(params.to_json()) == params


def test_encode_amount():
    assert str(encode_amount(42)) == str(BitString.from_text("42"))
    assert encode_amount(0) == BitString.from_text("0")
    with pytest.raises(ValueError):
        encode_amount(-1)


# ---------------------------------------------------------------- happy path


def test_honest_deposit_accepted():
    world, bank, _, record, cheque = issue(seed=11)
    result = bank.verify_cheque(world, cheque)
    assert result.accepted
    assert result.reason is RejectReason.OK
    assert result.amount_passes == (True, True)
    assert result.auth_passed is True
    assert record.spent and record.destroyed
    assert bank.spent_ledger_check(cheque.serial)


def test_deposit_consumes_all_quantum_state():
    world, bank, _, record, cheque = issue(seed=12)
    bank.verify_cheque(world, cheque)
    for q in cheque.amount_qubits + cheque.auth_qubits + tuple(record.bank_qubits):
        assert q not in world
    assert world.qubit_count == 0


def test_default_deposit_fits_sixteen_qubit_groups():
    # at l=8, n=8 the widest step is the authentication swap test: 8
    # cheque and 8 target qubits in one group, and nothing else
    world = World(seed=22, max_group_qubits=16)
    bank = Bank()
    book, _ = bank.gen_account(world, "alice", SchemeParams())
    cheque = sign_cheque(world, book, encode_amount(42))
    assert bank.verify_cheque(world, cheque).accepted


def test_deposit_collapses_only_the_recovery_pairs(monkeypatch):
    # every register a deposit discards is dropped, not collapsed: the
    # only collapses are the recovery X measurements, one per 2-qubit
    # triple remnant.  Each swap test is decided in closed form from
    # blocks of one cheque and one target qubit, and its 2n-qubit group,
    # dropped unused, is never built: no tensor product is built at all
    world, bank, _, _, cheque = issue(seed=22, params=SchemeParams())
    widths = collapse_widths(world)
    products = product_widths(monkeypatch)
    assert bank.verify_cheque(world, cheque).accepted
    assert widths and max(widths) <= 2
    assert products == []
    assert world.qubit_count == 0 and not world._groups


def test_swap_test_over_the_group_ceiling_is_refused_before_any_change():
    # the 8+8-qubit authentication test builds no 16-qubit state, but its
    # group would hold 16 qubits, so a ceiling of 15 still refuses it
    world = World(seed=22, max_group_qubits=15)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", SchemeParams())
    cheque = sign_cheque(world, book, encode_amount(42))
    target = prepare_auth_state(world, record.shared_key, BitString.from_text("alice"), cheque.nonce,
                                cheque.amount, 8, owner=Owner.BANK)
    before = world.to_json()
    with pytest.raises(ValueError, match="16-qubit group"):
        world.measure_swap(cheque.auth_qubits, target)
    assert world.to_json() == before
    for q in target:
        world.discard(q)
    # the deposit refuses it the same way, and still retires the serial
    with pytest.raises(ValueError, match="16-qubit group"):
        bank.verify_cheque(world, cheque)
    assert record.destroyed and world.qubit_count == 0
    world.check_partition()


def test_transcript_logs_one_recovery_per_triple():
    world, bank, _, _, cheque = issue(seed=13)
    bank.verify_cheque(world, cheque)
    session = max(m.session for m in bank.transcript)
    recoveries = messages_in_session(bank, session, "recovery-outcome")
    assert [m.payload["index"] for m in recoveries] == [1, 2]
    assert all(m.payload["outcome"] in ("+", "-") for m in recoveries)
    # messages within the session are strictly ordered
    seqs = [m.seq for m in messages_in_session(bank, session)]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    types = [m.payload_type for m in messages_in_session(bank, session)]
    assert types[0] == "verify-request" and types[-1] == "verdict"


# ---------------------------------------------------------------- rejections


def test_replayed_serial_is_refused_classically():
    world, bank, _, _, cheque = issue(seed=14)
    assert bank.verify_cheque(world, cheque).accepted
    again = bank.verify_cheque(world, cheque)
    assert not again.accepted
    assert again.reason is RejectReason.DOUBLE_SPEND
    # the replay never reached the quantum phase
    assert again.amount_passes == () and again.auth_passed is None


def test_unknown_serial_rejected():
    world, bank, _, _, cheque = issue(seed=15)
    stranger = Bank()
    result = stranger.verify_cheque(world, cheque)
    assert result.reason is RejectReason.UNKNOWN_ID_SERIAL
    assert not result.accepted


def test_wrong_account_id_rejected():
    world, bank, _, _, cheque = issue(seed=16)
    result = bank.verify_cheque(world, replace(cheque, account_id="mallory"))
    assert result.reason is RejectReason.UNKNOWN_ID_SERIAL


def test_bad_signature_quarantines_the_serial():
    world, bank, _, record, cheque = issue(seed=17)
    forged = replace(cheque, signature=bytes(len(cheque.signature)))
    result = bank.verify_cheque(world, forged)
    assert result.reason is RejectReason.BAD_SIGNATURE
    assert record.destroyed and not record.spent
    # the retired account's vault qubits go with the forged registers
    assert world.qubit_count == 0
    # the genuine cheque can no longer be deposited either
    retry = bank.verify_cheque(world, cheque)
    assert retry.reason is RejectReason.DOUBLE_SPEND
    assert world.qubit_count == 0
    world.check_partition()


def assert_serial_retired(world, bank, record, cheque, submitted):
    # a malformed submission is destroyed and still burns the serial and
    # the account's vault, so the genuine cheque cannot be deposited after
    # it and no qubit outlives the two sessions
    assert not any(q in world for q in submitted.amount_qubits + submitted.auth_qubits)
    assert not any(q in world for q in record.bank_qubits)
    assert record.destroyed and not record.spent
    assert bank.verify_cheque(world, cheque).reason is RejectReason.DOUBLE_SPEND
    assert world.qubit_count == 0
    world.check_partition()


def test_wrong_register_shape_raises():
    world, bank, _, record, cheque = issue(seed=18)
    truncated = replace(cheque, amount_qubits=cheque.amount_qubits[:1])
    with pytest.raises(ValueError):
        bank.verify_cheque(world, truncated)
    assert_serial_retired(world, bank, record, cheque, truncated)


def test_duplicate_handle_raises():
    world, bank, _, record, cheque = issue(seed=19)
    doubled = replace(cheque, amount_qubits=(cheque.amount_qubits[0],) * 2)
    with pytest.raises(ValueError):
        bank.verify_cheque(world, doubled)
    assert_serial_retired(world, bank, record, cheque, doubled)


def test_dead_handle_raises():
    world, bank, _, record, cheque = issue(seed=20)
    world.discard(cheque.amount_qubits[0])
    with pytest.raises(ValueError):
        bank.verify_cheque(world, cheque)
    assert_serial_retired(world, bank, record, cheque, cheque)


def test_junk_cheque_cannot_destroy_another_vault():
    # an unknown serial that names alice's vault qubits is rejected, and
    # the rejection must not measure the bank's side of her triples
    world, bank, _, record, cheque = issue(seed=2)
    junk = replace(cheque, serial=flip(cheque.serial, 0),
                   amount_qubits=tuple(record.bank_qubits), auth_qubits=())
    assert bank.verify_cheque(world, junk).reason is RejectReason.UNKNOWN_ID_SERIAL
    assert all(q in world for q in record.bank_qubits)
    assert bank.verify_cheque(world, cheque).reason is RejectReason.OK
    world.check_partition()


def test_vault_handles_as_amount_registers_raise_after_retirement():
    world, bank, _, record, cheque = issue(seed=1)
    aliased = replace(cheque, amount_qubits=tuple(record.bank_qubits))
    with pytest.raises(ValueError, match="custody"):
        bank.verify_cheque(world, aliased)
    assert_serial_retired(world, bank, record, cheque, aliased)


def test_raise_in_the_quantum_phase_still_retires_the_serial():
    # The 4+4-qubit authentication swap test needs an 8-qubit group, over
    # this world's ceiling of 6, so the deposit raises after recovery has
    # measured the vault.  The exit still destroys the cheque, the rest of
    # the vault and the bank's own swap-test targets, and burns the serial.
    params = SchemeParams(ghz_triples=2, auth_qubits=4, key_bits=64, serial_bits=64)
    world = World(seed=5, max_group_qubits=6)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", params)
    cheque = sign_cheque(world, book, encode_amount(42))
    with pytest.raises(ValueError, match="ceiling"):
        bank.verify_cheque(world, cheque)
    assert record.destroyed and not record.spent
    assert world.qubit_count == 0
    world.check_partition()
    assert bank.verify_cheque(world, cheque).reason is RejectReason.DOUBLE_SPEND


def test_cheque_book_signs_once():
    world = World(seed=21)
    bank = Bank()
    book, _ = bank.gen_account(world, "alice", SMALL)
    sign_cheque(world, book, encode_amount(1))
    with pytest.raises(ValueError):
        sign_cheque(world, book, encode_amount(2))


# ---------------------------------------------------------------- ledger


def test_accounts_get_distinct_serials():
    world = World(seed=22)
    bank = Bank()
    _, rec_a = bank.gen_account(world, "alice", SMALL)
    _, rec_b = bank.gen_account(world, "bob", SMALL)
    assert str(rec_a.serial) != str(rec_b.serial)
    assert bank._records == {str(rec_a.serial): rec_a, str(rec_b.serial): rec_b}


def test_spent_flag_only_set_on_acceptance():
    world, bank, _, record, cheque = issue(seed=23)
    assert not bank.spent_ledger_check(cheque.serial)
    bank.verify_cheque(world, replace(cheque, signature=b"\x00" * len(cheque.signature)))
    assert not bank.spent_ledger_check(cheque.serial)
    assert record.destroyed


# ---------------------------------------------------------------- persistence


def test_cheque_json_round_trip():
    _, _, _, _, cheque = issue(seed=24)
    assert QuantumCheque.from_json(cheque.to_json()) == cheque


def test_bank_json_round_trip_preserves_everything():
    world, bank, _, _, cheque = issue(seed=25)
    bank.verify_cheque(world, cheque)
    doc = bank.to_json()
    restored = Bank.from_json(doc)
    assert restored.to_json() == doc
    assert restored.transcript == bank.transcript
    record = restored._records[str(cheque.serial)]
    assert record.spent and record.destroyed
    # sessions keep counting from where the snapshot left off
    assert restored._session_counter == bank._session_counter


def test_bank_refuses_a_session_counter_below_its_transcript():
    # the next session is numbered counter + 1, so a counter below a
    # logged session would log that session's number twice
    world, bank, _, _, cheque = issue(seed=25)
    bank.verify_cheque(world, cheque)
    doc = bank.to_json()
    assert max(m["session"] for m in doc["transcript"]) == doc["session_counter"] == 2
    for counter in (-1, 0, 1):
        with pytest.raises(ValueError, match="below logged session 2"):
            Bank.from_json({**doc, "session_counter": counter})
    empty = Bank().to_json()
    assert Bank.from_json(empty).to_json() == empty
    with pytest.raises(ValueError, match="below logged session 0"):
        Bank.from_json({**empty, "session_counter": -1})


def test_bank_with_an_int_threshold_round_trips_byte_identically():
    # AcceptancePolicy(kappa2=1) writes 1; loading must not turn it into 1.0
    params = replace(SMALL, policy=AcceptancePolicy("threshold", 1))
    _, bank, _, _, _ = issue(seed=27, params=params)
    text = json.dumps(bank.to_json(), sort_keys=True)
    assert json.dumps(Bank.from_json(json.loads(text)).to_json(), sort_keys=True) == text


def test_bank_snapshot_format_checks():
    bank = Bank()
    doc = bank.to_json()
    with pytest.raises(ValueError):
        Bank.from_json({**doc, "format": "something-else"})
    with pytest.raises(ValueError):
        Bank.from_json({**doc, "version": 99})
    # version 1 snapshots carried the retired kappa1 policy field
    with pytest.raises(ValueError):
        Bank.from_json({**doc, "version": 1})
    with pytest.raises(ValueError):
        Bank.from_json({**doc, "signature_scheme": "other-v0"})


@pytest.mark.parametrize("bits", [7, 256, "128", None, "missing"])
def test_bank_snapshot_refuses_other_signature_widths(bits):
    # Every bank signs with 128-bit preimages; a snapshot that records any
    # other width would restore and then fail at the next gen_account.
    _, bank, _, _, _ = issue(seed=26)
    doc = bank.to_json()
    assert doc["signature_bits"] == 128
    if bits == "missing":
        del doc["signature_bits"]
    else:
        doc["signature_bits"] = bits
    with pytest.raises(ValueError, match="128"):
        Bank.from_json(doc)
