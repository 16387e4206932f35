"""The bank is total: a stateful property test over mixed deposits.

A small bank of 2-3 accounts, each with one signed cheque, receives a
random sequence of submissions: genuine, truncated, aliased, naming vault
qubits, replayed, under another account's name, mixing registers across
accounts, naming dead handles and with one field of the wrong type.  A
model that knows only which handles each submission names and which
fields are well formed predicts the verdict class of every deposit and
which qubits must still be live.  After every step:

- nothing escapes `verify_cheque` except a `ValueError` raised after the
  serial was retired, and before any quantum operation;
- the ledger only moves forward;
- `check_partition()` holds;
- no retired account holds a live vault qubit;
- `world.qubit_count` equals the registers still held;
- the bank saves as JSON, and loading that text saves the same text.

The issuer is held to the same rule: opening an account under an
account id that is not a `str` or with params that are not
`SchemeParams`, and signing an amount that is not a `BitString` from a
fresh book, raise `ValueError` and leave the world's snapshot and the
bank's saved text as they were.
"""

import json
from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from helpers import messages_in_session
from qcheque.bits import BitString
from qcheque.protocol import Bank, RejectReason, SchemeParams, encode_amount, sign_cheque
from qcheque.sim import Owner, QubitHandle, World

PARAMS = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=64, serial_bits=64)
NAMES = ("alice", "bob", "carol")
# no world in this test allocates this many qubits
DEAD = QubitHandle(10**6, Owner.ALICE)
QUANTUM_VERDICTS = {RejectReason.OK, RejectReason.AUTH_STATE_FAIL, RejectReason.AMOUNT_STATE_FAIL}
FIELDS = ("account_id", "serial", "nonce", "amount", "signature", "amount_qubits", "auth_qubits")


def qubit_fields(cheque):
    return cheque.amount_qubits, cheque.auth_qubits


def registers(cheque):
    """The handles a cheque names: the `QubitHandle` entries of its qubit
    fields that are tuples or lists."""
    return [q for field in qubit_fields(cheque) if isinstance(field, (tuple, list))
            for q in field if isinstance(q, QubitHandle)]


class BankMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), accounts=st.integers(2, 3))
    def open_accounts(self, seed, accounts):
        self.world = World(seed=seed)
        self.bank = Bank()
        self.records, self.cheques = [], []
        for name in NAMES[:accounts]:
            book, record = self.bank.gen_account(self.world, name, PARAMS)
            self.records.append(record)
            self.cheques.append(sign_cheque(self.world, book, encode_amount(7)))
        # an account whose book never signs, for the issuer's refusals
        self.spare_book, self.spare_record = self.bank.gen_account(self.world, "dave", PARAMS)
        # handles the payees and the spare book still hold; the model's view of the world
        self.held = {q for c in self.cheques for q in registers(c)}
        self.held |= {q for t in self.spare_book.triples for q in (t.issuer_qubit, t.cheque_qubit)}
        self.ledger = [(False, False)] * accounts
        self.last = None

    accounts = st.integers(0, 2)

    def account(self, i):
        return i % len(self.records)

    def submit(self, submitted, expect_accept=False):
        """Deposit `submitted` and hold the outcome to the model."""
        self.last = submitted
        # the ledger finds a record by the serial's text
        k = next((k for k, r in enumerate(self.records) if str(r.serial) == str(submitted.serial)
                  and r.account_id == submitted.account_id), None)
        record = None if k is None else self.records[k]
        was_retired = record is not None and record.destroyed
        # a one-time signature verifies only the serial it signed, as signed
        signed = (k is not None and isinstance(submitted.serial, BitString)
                  and submitted.signature == self.cheques[k].signature)
        named = registers(submitted)
        fields = qubit_fields(submitted)
        malformed = (
            not isinstance(submitted.nonce, BitString)
            or not isinstance(submitted.amount, BitString)
            or not all(isinstance(field, (tuple, list)) for field in fields)
            or sum(map(len, fields)) != len(named)
            or len(submitted.amount_qubits) != PARAMS.ghz_triples
            or len(submitted.auth_qubits) != PARAMS.auth_qubits
            or len(set(named)) != len(named)
            or any(q not in self.world or q.owner is Owner.BANK for q in named)
        )
        try:
            result = self.bank.verify_cheque(self.world, submitted)
        except ValueError:
            # only a malformed, signed cheque under a live serial raises:
            # after retirement, and before any amount state was recovered
            assert record is not None and not was_retired and signed and malformed
            assert record.destroyed and not record.spent
            assert not messages_in_session(self.bank, self.bank._session_counter, "recovery-outcome")
        else:
            if record is None:
                assert result.reason is RejectReason.UNKNOWN_ID_SERIAL
            elif was_retired:
                assert result.reason is RejectReason.DOUBLE_SPEND
            elif not signed:
                assert result.reason is RejectReason.BAD_SIGNATURE
            else:
                assert not malformed
                assert result.reason in QUANTUM_VERDICTS
                assert result.accepted or not expect_accept
                assert record.spent == result.accepted
        assert record is None or record.destroyed
        # the submission's own registers are gone; vault handles are not its to destroy
        self.held -= set(named)

    @rule(i=accounts)
    def genuine(self, i):
        cheque = self.cheques[self.account(i)]
        untouched = all(q in self.held for q in registers(cheque))
        self.submit(cheque, expect_accept=untouched)

    @rule(i=accounts)
    def truncated(self, i):
        cheque = self.cheques[self.account(i)]
        self.submit(replace(cheque, amount_qubits=cheque.amount_qubits[:1]))

    @rule(i=accounts)
    def aliased(self, i):
        cheque = self.cheques[self.account(i)]
        self.submit(replace(cheque, amount_qubits=(cheque.amount_qubits[0],) * 2))

    @rule(i=accounts, j=accounts)
    def naming_vault(self, i, j):
        cheque = self.cheques[self.account(i)]
        self.submit(replace(cheque, amount_qubits=tuple(self.records[self.account(j)].bank_qubits)))

    @rule()
    def replayed(self):
        if self.last is not None:
            self.submit(self.last)

    @rule(i=accounts, j=accounts)
    def under_another_name(self, i, j):
        cheque = self.cheques[self.account(i)]
        self.submit(replace(cheque, account_id=NAMES[self.account(j)] + "-not"))

    @rule(i=accounts, j=accounts, auth=st.booleans())
    def mixed_registers(self, i, j, auth):
        cheque, other = self.cheques[self.account(i)], self.cheques[self.account(j)]
        field = "auth_qubits" if auth else "amount_qubits"
        self.submit(replace(cheque, **{field: getattr(other, field)}))

    @rule(i=accounts)
    def dead_handle(self, i):
        cheque = self.cheques[self.account(i)]
        self.submit(replace(cheque, auth_qubits=(DEAD,) + cheque.auth_qubits[1:]))

    @rule(i=accounts, j=accounts, field=st.sampled_from(FIELDS), data=st.data())
    def wrong_type(self, i, j, field, data):
        cheque = self.cheques[self.account(i)]
        value = getattr(cheque, field)
        handles = value if field.endswith("_qubits") else cheque.auth_qubits
        replacement = data.draw(st.one_of(
            st.none(), st.integers(), st.just(str(value)), st.binary(max_size=8),
            st.just(tuple((q.qid, q.owner) for q in handles)),
            st.just([[q.qid, q.owner] for q in handles]),
            # the right type, from another account
            st.just(getattr(self.cheques[self.account(j)], field)),
        ))
        self.submit(replace(cheque, **{field: replacement}))

    def refused(self, issue):
        """`issue()` raises `ValueError` and changes nothing saved."""
        saved = lambda: (json.dumps(self.world.to_json()), json.dumps(self.bank.to_json()))
        before = saved()
        with pytest.raises(ValueError):
            issue()
        assert saved() == before

    @rule(account_id=st.one_of(st.none(), st.integers(), st.binary(max_size=4), st.just(["erin"])),
          bad_params=st.sampled_from([None, asdict(PARAMS)]), which=st.booleans())
    def refused_account(self, account_id, bad_params, which):
        args = (account_id, PARAMS) if which else ("erin", bad_params)
        self.refused(lambda: self.bank.gen_account(self.world, *args))

    @rule(amount=st.one_of(st.none(), st.integers(), st.just("7"), st.just(b"7"),
                           st.just(str(encode_amount(7)))))
    def refused_cheque(self, amount):
        self.refused(lambda: sign_cheque(self.world, self.spare_book, amount))

    @invariant()
    def ledger_moves_forward(self):
        for k, record in enumerate(self.records):
            spent, destroyed = self.ledger[k]
            assert record.spent >= spent and record.destroyed >= destroyed
            assert not record.spent or record.destroyed
            self.ledger[k] = (record.spent, record.destroyed)

    @invariant()
    def world_holds_exactly_the_live_registers(self):
        self.world.check_partition()
        vault = set()
        for record in self.records:
            live = [q in self.world for q in record.bank_qubits]
            if record.destroyed:
                assert not any(live)
            else:
                assert all(live)
                vault.update(record.bank_qubits)
        assert all(q in self.world for q in self.spare_record.bank_qubits)
        vault.update(self.spare_record.bank_qubits)
        assert all(q in self.world for q in self.held)
        assert self.world.qubit_count == len(self.held) + len(vault)

    @invariant()
    def bank_saves_and_reloads(self):
        text = json.dumps(self.bank.to_json(), allow_nan=False)
        assert json.dumps(Bank.from_json(json.loads(text)).to_json(), allow_nan=False) == text


BankMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=12,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestBankState = BankMachine.TestCase
