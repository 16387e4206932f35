"""End-to-end issue/sign/deposit behaviour, ledger rules, persistence."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from helpers import call_counts, collapse_widths, flip, messages_in_session, product_widths

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
from qcheque import sim
from qcheque.qowf import prepare_auth_state
from qcheque.sim import Owner, QubitHandle, World

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
        {"key_bits": 0},
        {"serial_bits": 32},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SchemeParams(**kwargs)


def test_short_keys_are_accepted_and_zero_is_refused():
    assert SchemeParams(key_bits=1).key_bits == 1
    assert SchemeParams(key_bits=8).key_bits == 8
    with pytest.raises(ValueError, match="key_bits must be positive"):
        SchemeParams(key_bits=0)


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


def test_default_deposit_fits_sixteen_qubit_groups(monkeypatch):
    # at l=8, n=8 the widest step is the authentication swap test: 8
    # cheque and 8 target qubits in one group, and nothing else
    monkeypatch.setattr(sim, "MAX_GROUP_QUBITS", 16)
    world = World(seed=22)
    bank = Bank()
    book, _ = bank.gen_account(world, "alice", SchemeParams())
    cheque = sign_cheque(world, book, encode_amount(42))
    assert bank.verify_cheque(world, cheque).accepted


def test_honest_deposit_work_is_pinned(monkeypatch):
    # the work of an honest l=8, n=8 deposit as exact counts, so a change
    # in work shows without timing.  Every register a deposit discards is
    # dropped, not collapsed: the only collapses are the recovery X
    # measurements, one per 2-qubit triple remnant.  The swap targets,
    # one fresh qubit each, come as two registers of one allocation each
    # (8 amount, then 8 authentication), so no group is allocated alone.
    # The deposit places 17 groups: 8 re-adopted vault qubits and 9
    # swap-test groups.  Each swap test is decided in closed form from
    # blocks of one cheque and one target qubit, and its group, dropped
    # unused, is never built: no merge, no settle and no tensor product
    world, bank, _, _, cheque = issue(seed=22, params=SchemeParams())
    widths = collapse_widths(world)
    products = product_widths(monkeypatch)
    calls = call_counts(world, "allocate_group", "allocate_register", "_place", "measure_swap",
                        "discard", "_merge", "_settle")
    assert bank.verify_cheque(world, cheque).accepted
    assert widths == [2] * 8
    assert calls == {"allocate_group": 0, "allocate_register": 2, "_place": 17, "measure_swap": 9,
                     "discard": 40, "_merge": 0, "_settle": 0}
    assert products == []
    assert world.qubit_count == 0 and not world._groups


def test_swap_test_over_the_group_ceiling_is_refused_before_any_change():
    # the 13+13-qubit authentication test builds no 26-qubit state, but
    # its group would hold 26 qubits, so the ceiling of 24 still refuses it
    world = World(seed=22)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", SchemeParams(auth_qubits=13))
    cheque = sign_cheque(world, book, encode_amount(42))
    target = prepare_auth_state(world, record.shared_key, BitString.from_text("alice"), cheque.nonce,
                                cheque.amount, 13, owner=Owner.BANK)
    before = world.to_json()
    with pytest.raises(ValueError, match="26-qubit group"):
        world.measure_swap(cheque.auth_qubits, target)
    assert world.to_json() == before
    for q in target:
        world.discard(q)
    # the deposit refuses it the same way, and still retires the serial
    with pytest.raises(ValueError, match="26-qubit group"):
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


@pytest.mark.parametrize("account_id", [b"alice", {"alice"}, 7, None], ids=repr)
def test_any_account_id_leaves_the_bank_saveable(account_id):
    # the request is logged before any check, so an id that JSON cannot
    # hold must be logged as its text
    world, bank, _, _, cheque = issue(seed=3)
    result = bank.verify_cheque(world, replace(cheque, account_id=account_id))
    assert result.reason is RejectReason.UNKNOWN_ID_SERIAL
    text = json.dumps(bank.to_json(), allow_nan=False)
    assert json.dumps(Bank.from_json(json.loads(text)).to_json(), allow_nan=False) == text


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


def test_serial_that_is_not_a_bit_string_is_a_bad_signature():
    # the ledger finds the record by the serial's text, so a serial given
    # as that text reaches signature verification, which refuses it
    world, bank, _, record, cheque = issue(seed=23)
    as_text = replace(cheque, serial=str(cheque.serial))
    result = bank.verify_cheque(world, as_text)
    assert result.reason is RejectReason.BAD_SIGNATURE and not result.accepted
    assert_serial_retired(world, bank, record, cheque, as_text)


def assert_serial_retired(world, bank, record, cheque, submitted, named=None):
    # a malformed submission is destroyed, `named` its handles when not
    # both registers, and still burns the serial and the account's vault,
    # so the genuine cheque cannot be deposited after it and no qubit
    # outlives the two sessions
    if named is None:
        named = submitted.amount_qubits + submitted.auth_qubits
    assert not any(q in world for q in named)
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


# Qubit fields that are not tuples or lists of handles, each with the
# handles of the cheque that it still names.
MALFORMED_QUBIT_FIELDS = {
    "amount None": lambda c: ({"amount_qubits": None}, c.auth_qubits),
    "auth None": lambda c: ({"auth_qubits": None}, c.amount_qubits),
    "amount as tuples": lambda c: (
        {"amount_qubits": tuple((q.qid, q.owner) for q in c.amount_qubits)}, c.auth_qubits),
    "amount as lists": lambda c: (
        {"amount_qubits": [[q.qid, q.owner] for q in c.amount_qubits]}, c.auth_qubits),
}


@pytest.mark.parametrize("malform", MALFORMED_QUBIT_FIELDS.values(), ids=MALFORMED_QUBIT_FIELDS)
def test_malformed_qubit_fields_raise_after_retirement(malform):
    world, bank, _, record, cheque = issue(seed=100)
    fields, named = malform(cheque)
    malformed = replace(cheque, **fields)
    with pytest.raises(ValueError, match="qubit fields"):
        bank.verify_cheque(world, malformed)
    assert_serial_retired(world, bank, record, cheque, malformed, named)


@pytest.mark.parametrize("field", ["nonce", "amount"])
@pytest.mark.parametrize("malform", [lambda bits: None, str, lambda bits: 7], ids=["None", "str", "int"])
def test_classical_fields_that_are_not_bit_strings_raise_after_retirement(field, malform):
    world, bank, _, record, cheque = issue(seed=100)
    malformed = replace(cheque, **{field: malform(getattr(cheque, field))})
    with pytest.raises(ValueError, match="bit strings"):
        bank.verify_cheque(world, malformed)
    assert not messages_in_session(bank, bank._session_counter, "recovery-outcome")
    assert_serial_retired(world, bank, record, cheque, malformed)


def test_handle_with_a_plain_text_owner_cannot_destroy_another_vault():
    # equal to the vault handle it copies, so it finds bob's vault qubit,
    # but its owner is not `Owner.BANK`: the bank refuses it and leaves
    # bob's vault to him
    world, bank, _, record, cheque = issue(seed=3)
    book, bob = bank.gen_account(world, "bob", SMALL)
    bobs_cheque = sign_cheque(world, book, encode_amount(42))
    posing = replace(cheque, amount_qubits=tuple(QubitHandle(q.qid, "bank") for q in bob.bank_qubits))
    with pytest.raises(ValueError, match="qubit fields"):
        bank.verify_cheque(world, posing)
    assert all(q in world for q in bob.bank_qubits)
    assert bank.verify_cheque(world, bobs_cheque).reason is RejectReason.OK
    assert_serial_retired(world, bank, record, cheque, posing, cheque.auth_qubits)


def test_refused_admission_builds_no_pending_branch():
    # a swap test leaves the authentication register's group holding its
    # branch pending; a cheque that also names a vault qubit is refused at
    # admission, which checks liveness without settling that group
    world, bank, _, record, cheque = issue(seed=3)
    probes = [world.allocate(Owner.ADVERSARY) for _ in cheque.auth_qubits]
    world.measure_swap(list(cheque.auth_qubits), probes)
    posing = replace(cheque, auth_qubits=cheque.auth_qubits[:-1] + (record.bank_qubits[0],))
    calls = call_counts(world, "_settle", "_build_branch")
    with pytest.raises(ValueError, match="bank custody"):
        bank.verify_cheque(world, posing)
    assert calls == {"_settle": 0, "_build_branch": 0}
    assert record.destroyed and not record.spent
    assert bank.verify_cheque(world, cheque).reason is RejectReason.DOUBLE_SPEND


def test_raise_in_the_quantum_phase_still_retires_the_serial():
    # The 13+13-qubit authentication swap test needs a 26-qubit group,
    # over the ceiling of 24, so the deposit raises after recovery has
    # measured the vault.  The exit still destroys the cheque, the rest of
    # the vault and the bank's own swap-test targets, and burns the serial.
    params = SchemeParams(ghz_triples=2, auth_qubits=13, key_bits=64, serial_bits=64)
    world = World(seed=5)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", params)
    cheque = sign_cheque(world, book, encode_amount(42))
    with pytest.raises(ValueError, match="ceiling"):
        bank.verify_cheque(world, cheque)
    assert record.destroyed and not record.spent
    assert world.qubit_count == 0
    world.check_partition()
    assert bank.verify_cheque(world, cheque).reason is RejectReason.DOUBLE_SPEND


def test_raise_in_an_amount_swap_test_discards_every_target(monkeypatch):
    # The second of three amount qubits shares a group with three
    # adversary qubits, so under a ceiling of 4 its swap test needs a
    # 5-qubit group and raises.  The amount targets were allocated as one
    # register before the first test, so the exit discards the one under
    # test and the third, never tested, as well as the first.
    params = SchemeParams(ghz_triples=3, auth_qubits=2, key_bits=64, serial_bits=64)
    world = World(seed=7)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", params)
    cheque = sign_cheque(world, book, encode_amount(42))
    held = cheque.amount_qubits[1]
    partners = world.allocate_register(Owner.ADVERSARY, [(0.5**0.5, 0.5**0.5)] * 3)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    for q in partners:
        world.apply_gate(cnot, [q, held])
    monkeypatch.setattr(sim, "MAX_GROUP_QUBITS", 4)
    with pytest.raises(ValueError, match="5-qubit group"):
        bank.verify_cheque(world, cheque)
    assert record.destroyed and not record.spent
    assert world.qubit_count == 3 and all(q in world for q in partners)
    world.check_partition()


def test_cheque_book_signs_once():
    world = World(seed=21)
    bank = Bank()
    book, _ = bank.gen_account(world, "alice", SMALL)
    sign_cheque(world, book, encode_amount(1))
    with pytest.raises(ValueError):
        sign_cheque(world, book, encode_amount(2))


def _spend_key(world, book):
    book.scheme.sign(book.secret_key, book.serial)


def _discard_issuer_qubit(world, book):
    world.discard(book.triples[2].issuer_qubit)


def _discard_cheque_qubit(world, book):
    world.discard(book.triples[2].cheque_qubit)


@pytest.mark.parametrize(
    "spoil, message",
    [(_spend_key, "cheque book has already signed"),
     (_discard_issuer_qubit, "triple 3 was already consumed"),
     (_discard_cheque_qubit, "triple 3 was already consumed")],
)
def test_signing_refuses_a_spent_book_before_it_draws(spoil, message):
    # the key's own flag and the world's record of each triple's qubits
    # are what signing reads; a refusal draws nothing, allocates nothing
    # and encodes no triple
    world = World(seed=5)
    book, _ = Bank().gen_account(world, "alice", replace(SMALL, ghz_triples=3))
    spoil(world, book)
    before = world.to_json()
    live = [[q in world for q in (t.issuer_qubit, t.cheque_qubit, t.bank_qubit)] for t in book.triples]
    with pytest.raises(ValueError, match=message):
        sign_cheque(world, book, encode_amount(42))
    assert world.to_json() == before
    assert [[q in world for q in (t.issuer_qubit, t.cheque_qubit, t.bank_qubit)]
            for t in book.triples] == live


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


def test_bank_snapshot_refuses_a_serial_listed_twice():
    # records are keyed by serial, so a second listing would replace the
    # first without a word
    _, bank, _, _, _ = issue(seed=28)
    doc = bank.to_json()
    doc["records"].append(doc["records"][0])
    with pytest.raises(ValueError, match="twice"):
        Bank.from_json(doc)


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
    # version 2 snapshots carried the retired short-key opt-in flag
    with pytest.raises(ValueError):
        Bank.from_json({**doc, "version": 2})
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
