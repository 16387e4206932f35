"""Test-side views of the package: state extraction, random unitaries and
transcript filters that no protocol path needs."""

import numpy as np

from qcheque.bits import BitString


def state_of(world, register) -> np.ndarray:
    """Pure state of a register, axes in register order, global phase fixed
    so equal registers compare equal.  Raises unless the register is
    unentangled with the rest of the world."""
    rho = world.reduced_density(register)
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - 1e-9:
        raise ValueError(f"register is entangled with other qubits (purity {purity:.6f})")
    vals, vecs = np.linalg.eigh(rho)
    vec = vecs[:, int(np.argmax(vals))]
    pivot = int(np.argmax(np.abs(vec)))
    return vec / (vec[pivot] / abs(vec[pivot]))


def handles(world) -> list:
    """All live handles of a world, in group order; a discarded qubit
    stays in its group's qubit list until the group is settled."""
    return [q for g in world._groups for q in g.qubits if q in world]


def collapse_widths(world) -> list:
    """A list that grows by the group width of every collapse the world
    runs from now on."""
    widths = []
    collapse = world._collapse

    def counted(group, targets, basis, u):
        widths.append(group.n_qubits)
        return collapse(group, targets, basis, u)

    world._collapse = counted
    return widths


def haar_random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def messages_in_session(bank, session: int, payload_type: str | None = None) -> list:
    return [
        m for m in bank.transcript
        if m.session == session and (payload_type is None or m.payload_type == payload_type)
    ]


def flip(bits: BitString, index: int) -> BitString:
    """A copy of `bits` with bit `index`, counted from the most significant,
    inverted."""
    if not 0 <= index < len(bits):
        raise IndexError(f"bit {index} of a {len(bits)}-bit string")
    return BitString(len(bits), bits.value ^ (1 << (len(bits) - 1 - index)))
