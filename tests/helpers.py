"""Test-side views of the package: state extraction, random unitaries and
transcript filters that no protocol path needs."""

import numpy as np

from qcheque import sim
from qcheque.bits import BitString
from qcheque.sim import Owner


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


def call_counts(world, *names) -> dict:
    """A dict that counts, by name, the calls the world makes from now on
    to each of the named methods, including its own calls to them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(world, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(world, name, counted)
    return counts


def product_widths(monkeypatch) -> list:
    """A list that grows by the qubit width of every tensor product the
    simulator builds for the rest of the test: merges, swap-test blocks,
    settled swap-test branches and introspection."""
    widths = []
    product = sim._product

    def counted(vectors):
        out = product(vectors)
        widths.append(out.size.bit_length() - 1)
        return out

    monkeypatch.setattr(sim, "_product", counted)
    return widths


# Two registers laid over entangled groups, for swap tests: the group sizes
# in allocation order, then each register as indices into the qubits that
# those groups hold, in allocation order.
SWAP_LAYOUTS = {
    # the honest deposit's shape: one block of two singletons per pair
    "singletons": ([1] * 6, [0, 1, 2], [3, 4, 5]),
    # two blocks of two groups each, with four bystanders
    "spread over groups": ([3, 2, 3, 2], [0, 5, 1], [3, 8, 4]),
    # one block holds a 4-qubit group and two pairs; a second block
    # joins two singletons
    "one group, several pairs": ([4, 1, 1], [0, 2, 4], [1, 3, 5]),
    # each block holds a pair and bystanders on both sides
    "bystanders in a block": ([3, 1, 2, 3], [0, 4], [3, 8]),
    # one group holds both registers; another group stands by
    "registers share a group": ([6, 2], [5, 2, 0], [1, 4, 3]),
    # a cycle of pairs joins three groups into one block
    "one block of three groups": ([2, 2, 2], [0, 2, 4], [3, 5, 1]),
}


def swap_layout(world, rng, name) -> tuple[list, list]:
    """Allocate random entangled groups in the named layout; return its two
    registers."""
    sizes, reg_a, reg_b = SWAP_LAYOUTS[name]
    qubits = []
    for k in sizes:
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        qubits += world.allocate_group([Owner.ALICE] * k, amps / np.linalg.norm(amps))
    return [qubits[i] for i in reg_a], [qubits[i] for i in reg_b]


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
