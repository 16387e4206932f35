"""Issuing, signing and verifying cheques backed by shared entanglement.

Account generation gives the issuer a cheque book: a shared classical
key, a serial number, a one-time signing key, and the issuer halves of
freshly shared GHZ triples whose third qubits stay in the bank's vault.

Signing draws a nonce, prepares the authentication register binding
(key, account id, nonce, amount), prepares one amount state per triple
and teleport-encodes it onto the (cheque, bank) pair, then signs the
serial number.  A cheque book signs exactly once.

Verification is one admission step followed by one exit.  Admission runs
every classical check before any qubit is touched: record lookup, ledger
availability, signature, then the cheque's shape (register widths, no
handle twice, every handle live and none in bank custody).  It either
refuses the cheque with a reject reason, raises `ValueError` on a
malformed one, or admits it to the quantum phase: recovery of every
amount state, swap tests against independently recomputed targets, then
the policy decision.  Every path, a return or a raise, leaves through
the same exit: the submitted registers and the bank's own swap-test
targets are destroyed and, for a known serial, the account's vault is
discarded and the serial retired, so a submission cannot be probed again
under the same serial.  The spent ledger only ever moves from unspent to
spent.

Every bank interaction is appended to an ordered session transcript;
one recovery outcome message crosses the bank/branch boundary per triple.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

from .bits import BitString
from .qowf import prepare_amount_state, prepare_auth_state
from .signatures import PREIMAGE_BITS, LamportSignatureScheme
from .sim import Owner, QubitHandle, World, _document, _field, _handle
from .swaptest import swap_test
from .teleport import GhzTriple, encode_qubit, prepare_ghz, recover_qubit

__all__ = [
    "AcceptancePolicy",
    "SchemeParams",
    "ChequeBook",
    "BankRecord",
    "QuantumCheque",
    "RejectReason",
    "VerifyResult",
    "Message",
    "Bank",
    "sign_cheque",
    "encode_amount",
]

BANK_SNAPSHOT_FORMAT = "qcheque-bank"
BANK_SNAPSHOT_VERSION = 2


class RejectReason(Enum):
    OK = "ok"
    UNKNOWN_ID_SERIAL = "unknown-id-serial"
    BAD_SIGNATURE = "bad-signature"
    DOUBLE_SPEND = "double-spend"
    AUTH_STATE_FAIL = "auth-state-fail"
    AMOUNT_STATE_FAIL = "amount-state-fail"


@dataclass(frozen=True)
class AcceptancePolicy:
    """How swap-test outcomes turn into an accept or reject.

    ``strict`` requires every test to pass.  ``threshold`` accepts when
    the passing fraction of amount-state tests is at least `kappa2`.  In
    both modes the single authentication test must pass.
    """

    mode: str = "strict"
    kappa2: float = 0.91

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "threshold"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if not 0.5 < self.kappa2 <= 1.0:
            raise ValueError(f"kappa2 must lie in (0.5, 1], got {self.kappa2!r}")

    def decide(self, passes: list[bool]) -> bool:
        """Verdict over a batch of same-kind swap tests."""
        if self.mode == "strict":
            return all(passes)
        if not passes:
            return True
        return sum(passes) / len(passes) >= self.kappa2

    @classmethod
    def from_json(cls, doc: dict) -> "AcceptancePolicy":
        return cls(mode=doc["mode"], kappa2=_field(doc, "kappa2", (int, float)))


@dataclass(frozen=True)
class SchemeParams:
    """The parameter bundle threaded through every protocol operation.

    ghz_triples:  entangled triples per cheque (and amount states to check).
    auth_qubits:  width of the authentication register.
    key_bits:     length of the shared key and of nonces.
    serial_bits:  length of serial numbers.
    """

    ghz_triples: int = 8
    auth_qubits: int = 8
    key_bits: int = 256
    serial_bits: int = 128
    policy: AcceptancePolicy = field(default_factory=AcceptancePolicy)
    allow_insecure_key_bits: bool = False

    def __post_init__(self) -> None:
        if self.ghz_triples < 1:
            raise ValueError("ghz_triples must be at least 1")
        if self.auth_qubits < 1:
            raise ValueError("auth_qubits must be at least 1")
        if self.key_bits < 64 and not self.allow_insecure_key_bits:
            raise ValueError("key_bits below 64 needs allow_insecure_key_bits=True")
        if self.key_bits < 1:
            raise ValueError("key_bits must be positive")
        if self.serial_bits < 64:
            raise ValueError("serial_bits must be at least 64")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SchemeParams":
        return cls(
            ghz_triples=_field(doc, "ghz_triples", int),
            auth_qubits=_field(doc, "auth_qubits", int),
            key_bits=_field(doc, "key_bits", int),
            serial_bits=_field(doc, "serial_bits", int),
            policy=AcceptancePolicy.from_json(doc["policy"]),
            allow_insecure_key_bits=_field(doc, "allow_insecure_key_bits", bool),
        )


@dataclass
class ChequeBook:
    """Issuer-side material for one cheque: secrets plus triple halves."""

    account_id: str
    serial: BitString
    shared_key: BitString
    public_key: object
    secret_key: object
    triples: list[GhzTriple]
    params: SchemeParams
    scheme: LamportSignatureScheme
    used: bool = False


@dataclass
class BankRecord:
    """Bank-side view of one account: secrets, vault qubits, ledger flags.

    `spent` only ever goes False -> True on acceptance.  `destroyed`
    marks that a verification session consumed the serial, whatever the
    verdict, so the serial can never be submitted again.
    """

    account_id: str
    serial: BitString
    shared_key: BitString
    public_key: object
    bank_qubits: list[QubitHandle]
    params: SchemeParams
    spent: bool = False
    destroyed: bool = False


@dataclass(frozen=True)
class QuantumCheque:
    """What the payee actually receives.

    The classical fields are fixed at signing; the two handle tuples
    point at live qubits in the world the cheque was issued in.
    """

    account_id: str
    serial: BitString
    nonce: BitString
    amount: BitString
    signature: bytes
    amount_qubits: tuple[QubitHandle, ...]
    auth_qubits: tuple[QubitHandle, ...]

    def to_json(self) -> dict:
        return {
            "account_id": self.account_id,
            "serial": str(self.serial),
            "nonce": str(self.nonce),
            "amount": str(self.amount),
            "signature": self.signature.hex(),
            "amount_qubits": [[q.qid, q.owner.value] for q in self.amount_qubits],
            "auth_qubits": [[q.qid, q.owner.value] for q in self.auth_qubits],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QuantumCheque":
        return cls(
            account_id=doc["account_id"],
            serial=BitString.from_binary_text(doc["serial"]),
            nonce=BitString.from_binary_text(doc["nonce"]),
            amount=BitString.from_binary_text(doc["amount"]),
            signature=bytes.fromhex(doc["signature"]),
            amount_qubits=tuple(map(_handle, doc["amount_qubits"])),
            auth_qubits=tuple(map(_handle, doc["auth_qubits"])),
        )


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: RejectReason
    amount_passes: tuple[bool, ...] = ()
    auth_passed: bool | None = None


class Message(NamedTuple):
    """One entry of the bank's ordered session transcript."""

    session: int
    seq: int
    sender: str
    receiver: str
    payload_type: str
    payload: dict


def encode_amount(units: int) -> BitString:
    """Encode a non-negative whole number of currency units as bits."""
    if units < 0:
        raise ValueError("amounts are non-negative")
    return BitString.from_text(str(int(units)))


class Bank:
    """Account registry, spent ledger, vault custody and verification."""

    def __init__(self):
        self.scheme = LamportSignatureScheme()
        self._records: dict[str, BankRecord] = {}
        self.transcript: list[Message] = []
        self._session_counter = 0

    # ------------------------------------------------------------------
    # transcript plumbing
    # ------------------------------------------------------------------

    def _session(self):
        """Open a session; returns `log(sender, receiver, payload_type,
        payload)`, which appends that session's messages numbered from 0."""
        self._session_counter += 1
        session, seq = self._session_counter, itertools.count()

        def log(sender: str, receiver: str, payload_type: str, payload: dict) -> None:
            self.transcript.append(Message(session, next(seq), sender, receiver, payload_type, payload))

        return log

    # ------------------------------------------------------------------
    # account generation
    # ------------------------------------------------------------------

    def gen_account(self, world: World, account_id: str, params: SchemeParams) -> tuple[ChequeBook, BankRecord]:
        """Open an account: shared key, serial, signing keys, GHZ triples."""
        log = self._session()
        serial = BitString.random(world.rng, params.serial_bits)
        while str(serial) in self._records:
            serial = BitString.random(world.rng, params.serial_bits)
        shared_key = BitString.random(world.rng, params.key_bits)
        keypair = self.scheme.generate_keypair(world.rng)
        triples = [prepare_ghz(world, i) for i in range(1, params.ghz_triples + 1)]

        record = BankRecord(
            account_id=account_id,
            serial=serial,
            shared_key=shared_key,
            public_key=keypair.public,
            bank_qubits=[t.bank_qubit for t in triples],
            params=params,
        )
        self._records[str(serial)] = record
        book = ChequeBook(
            account_id=account_id,
            serial=serial,
            shared_key=shared_key,
            public_key=keypair.public,
            secret_key=keypair.secret,
            triples=triples,
            params=params,
            scheme=self.scheme,
        )
        log("main", "issuer", "account-issued",
            {"account_id": account_id, "serial": str(serial), "ghz_triples": params.ghz_triples})
        return book, record

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------

    def spent_ledger_check(self, serial: BitString) -> bool:
        """True when a cheque under this serial has been deposited."""
        record = self._records.get(str(serial))
        return bool(record and record.spent)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def verify_cheque(self, world: World, cheque: QuantumCheque) -> VerifyResult:
        """Run the full deposit pipeline on a submitted cheque.

        `_admit` runs every classical check before any qubit is touched,
        so a replayed serial is refused without consuming bank-side
        entanglement.  Everything after the lookup sits in one
        `try/finally`, whose exit destroys the submitted registers (never
        a handle in bank custody) and the bank's own swap-test targets,
        and retires a known serial along with whatever is left of its
        vault.  It runs on every return and every raise.
        """
        log = self._session()
        log("branch", "main", "verify-request",
            {"account_id": cheque.account_id, "serial": str(cheque.serial)})
        record = self._records.get(str(cheque.serial))
        if record is not None and record.account_id != cheque.account_id:
            record = None
        # bank-side qubits the exit discards: the vault, then swap-test targets
        bank_held = [] if record is None else list(record.bank_qubits)
        try:
            reason = self._admit(world, cheque, record, log)
            if reason is not None:
                return VerifyResult(False, reason)

            # quantum phase: recover each amount state onto its cheque qubit
            for i, (bank_q, cheque_q) in enumerate(zip(record.bank_qubits, cheque.amount_qubits), start=1):
                outcome = recover_qubit(world, bank_q, cheque_q)
                log("main", "branch", "recovery-outcome", {"index": i, "outcome": outcome.value})
                world.discard(bank_q)

            amount_passes = []
            for i, cheque_q in enumerate(cheque.amount_qubits, start=1):
                target = prepare_amount_state(world, cheque.nonce, cheque.amount, i, owner=Owner.BANK)
                bank_held.append(target)
                amount_passes.append(swap_test(world, [cheque_q], [target]))
                world.discard(target)

            params = record.params
            auth_target = prepare_auth_state(
                world, record.shared_key, BitString.from_text(cheque.account_id), cheque.nonce,
                cheque.amount, params.auth_qubits, owner=Owner.BANK,
            )
            bank_held += auth_target
            auth_passed = swap_test(world, list(cheque.auth_qubits), auth_target)
            for q in auth_target:
                world.discard(q)

            amount_ok = params.policy.decide(amount_passes)
            accepted = amount_ok and auth_passed
            if accepted:
                reason = RejectReason.OK
            elif not amount_ok:
                reason = RejectReason.AMOUNT_STATE_FAIL
            else:
                reason = RejectReason.AUTH_STATE_FAIL
            log("branch", "main", "verdict", {"accepted": accepted, "reason": reason.value})
            record.spent = accepted  # admitted, so it was unspent
            return VerifyResult(accepted, reason, tuple(amount_passes), auth_passed)
        finally:
            for q in [*cheque.amount_qubits, *cheque.auth_qubits]:
                if q in world and q.owner is not Owner.BANK:
                    world.discard(q)
            for q in bank_held:
                if q in world:
                    world.discard(q)
            if record is not None:
                record.destroyed = True

    def _admit(self, world: World, cheque: QuantumCheque, record: BankRecord | None, log) -> RejectReason | None:
        """Every classical check, in order; None admits the cheque to the
        quantum phase.  A malformed cheque raises `ValueError`."""
        if record is None:
            log("main", "branch", "lookup-status", {"known": False})
            return RejectReason.UNKNOWN_ID_SERIAL
        available = not (record.spent or record.destroyed)
        log("main", "branch", "lookup-status", {"known": True, "available": available})
        if not available:
            return RejectReason.DOUBLE_SPEND
        signature_ok = self.scheme.verify(record.public_key, cheque.serial, cheque.signature)
        log("branch", "main", "signature-status", {"valid": signature_ok})
        if not signature_ok:
            return RejectReason.BAD_SIGNATURE

        params = record.params
        if len(cheque.amount_qubits) != params.ghz_triples:
            raise ValueError(
                f"cheque carries {len(cheque.amount_qubits)} amount qubits, "
                f"scheme expects {params.ghz_triples}"
            )
        if len(cheque.auth_qubits) != params.auth_qubits:
            raise ValueError(
                f"cheque carries {len(cheque.auth_qubits)} auth qubits, "
                f"scheme expects {params.auth_qubits}"
            )
        handles = [*cheque.amount_qubits, *cheque.auth_qubits]
        if len(set(handles)) != len(handles):
            raise ValueError("cheque lists a qubit handle twice")
        for q in handles:
            world.group_of(q)
            if q.owner is Owner.BANK:
                raise ValueError(f"cheque lists {q!r}, which is in bank custody")
        return None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        records = []
        for record in self._records.values():
            records.append(
                {
                    "account_id": record.account_id,
                    "serial": str(record.serial),
                    "shared_key": str(record.shared_key),
                    "public_key": self.scheme.public_key_to_json(record.public_key),
                    "bank_qubits": [[q.qid, q.owner.value] for q in record.bank_qubits],
                    "params": record.params.to_json(),
                    "spent": record.spent,
                    "destroyed": record.destroyed,
                }
            )
        return {
            "format": BANK_SNAPSHOT_FORMAT,
            "version": BANK_SNAPSHOT_VERSION,
            "signature_scheme": self.scheme.identifier,
            "signature_bits": PREIMAGE_BITS,
            "session_counter": self._session_counter,
            "records": records,
            "transcript": [m._asdict() for m in self.transcript],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Bank":
        _document(doc, BANK_SNAPSHOT_FORMAT, BANK_SNAPSHOT_VERSION)
        if doc.get("signature_bits") != PREIMAGE_BITS:
            raise ValueError(
                f"snapshot signs with {doc.get('signature_bits')!r}-bit preimages, "
                f"expected {PREIMAGE_BITS}"
            )
        bank = cls()
        if bank.scheme.identifier != doc.get("signature_scheme"):
            raise ValueError(
                f"snapshot uses scheme {doc.get('signature_scheme')!r}, "
                f"bank is configured with {bank.scheme.identifier!r}"
            )
        bank._session_counter = _field(doc, "session_counter", int)
        for entry in doc["records"]:
            record = BankRecord(
                account_id=entry["account_id"],
                serial=BitString.from_binary_text(entry["serial"]),
                shared_key=BitString.from_binary_text(entry["shared_key"]),
                public_key=bank.scheme.public_key_from_json(entry["public_key"]),
                bank_qubits=list(map(_handle, entry["bank_qubits"])),
                params=SchemeParams.from_json(entry["params"]),
                spent=_field(entry, "spent", bool),
                destroyed=_field(entry, "destroyed", bool),
            )
            bank._records[str(record.serial)] = record
        for m in doc["transcript"]:
            bank.transcript.append(
                Message(_field(m, "session", int), _field(m, "seq", int), m["sender"],
                        m["receiver"], m["payload_type"], m["payload"])
            )
        # the next session is numbered counter + 1, so a counter below a
        # logged session would number a session twice
        last = max((m.session for m in bank.transcript), default=0)
        if bank._session_counter < last:
            raise ValueError(f"session_counter {bank._session_counter} is below logged session {last}")
        return bank


def sign_cheque(world: World, book: ChequeBook, amount: BitString) -> QuantumCheque:
    """Issue a cheque over `amount` from a fresh cheque book.

    Consumes the book: the nonce is drawn, the authentication register is
    prepared, every amount state is teleport-encoded onto its triple, and
    the serial is signed with the one-time key.
    """
    if book.used:
        raise ValueError("cheque book has already signed a cheque")
    for triple in book.triples:
        if triple.used:
            raise ValueError(f"triple {triple.index} was already consumed")

    nonce = BitString.random(world.rng, book.params.key_bits)
    id_bits = BitString.from_text(book.account_id)
    auth = prepare_auth_state(
        world, book.shared_key, id_bits, nonce, amount,
        book.params.auth_qubits, owner=Owner.ALICE,
    )
    for i, triple in enumerate(book.triples, start=1):
        payload = prepare_amount_state(world, nonce, amount, i, owner=Owner.ALICE)
        encode_qubit(world, payload, triple)
    signature = book.scheme.sign(book.secret_key, book.serial)
    book.used = True
    return QuantumCheque(
        account_id=book.account_id,
        serial=book.serial,
        nonce=nonce,
        amount=amount,
        signature=signature,
        amount_qubits=tuple(t.cheque_qubit for t in book.triples),
        auth_qubits=tuple(auth),
    )

