"""Entanglement-backed cheques on a small statevector simulator.

The pieces, bottom to top: `sim` holds the simulator, `bits` and `stats`
the classical plumbing, `qowf` the hash-to-state preparation, `swaptest`
and `teleport` the two quantum subroutines, `signatures` the one-time
signatures, `protocol` the bank, and `adversary` the attack harness.
`cli` wires everything to a command line (installed as ``qcheque``).
"""

from .adversary import (
    STRATEGIES,
    AttackStats,
    CloneResult,
    clone_qubit,
    local_tamper,
    run_attack,
    run_honest,
)
from .bits import BitString, frame_fields
from .protocol import (
    AcceptancePolicy,
    Bank,
    BankRecord,
    ChequeBook,
    Message,
    QuantumCheque,
    RejectReason,
    SchemeParams,
    VerifyResult,
    destroy_cheque,
    encode_amount,
    sign_cheque,
)
from .qowf import (
    amount_state_amplitudes,
    auth_state_amplitudes,
    derive_angles,
    prepare_amount_state,
    prepare_auth_state,
)
from .signatures import LamportSignatureScheme
from .sim import (
    BellOutcome,
    HadamardOutcome,
    Owner,
    QubitHandle,
    World,
    haar_random_qubit,
    haar_random_unitary,
)
from .swaptest import SwapOutcome, swap_test
from .teleport import (
    EncodingRecord,
    GhzTriple,
    RecoveryRecord,
    encode_qubit,
    prepare_ghz,
    recover_qubit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AcceptancePolicy",
    "AttackStats",
    "Bank",
    "BankRecord",
    "BellOutcome",
    "BitString",
    "ChequeBook",
    "CloneResult",
    "EncodingRecord",
    "GhzTriple",
    "HadamardOutcome",
    "LamportSignatureScheme",
    "Message",
    "Owner",
    "QuantumCheque",
    "QubitHandle",
    "RecoveryRecord",
    "RejectReason",
    "STRATEGIES",
    "SchemeParams",
    "SwapOutcome",
    "VerifyResult",
    "World",
    "amount_state_amplitudes",
    "auth_state_amplitudes",
    "clone_qubit",
    "derive_angles",
    "destroy_cheque",
    "encode_amount",
    "encode_qubit",
    "frame_fields",
    "haar_random_qubit",
    "haar_random_unitary",
    "local_tamper",
    "prepare_amount_state",
    "prepare_auth_state",
    "prepare_ghz",
    "recover_qubit",
    "run_attack",
    "run_honest",
    "sign_cheque",
    "swap_test",
]
