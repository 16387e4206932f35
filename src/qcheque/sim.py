"""Statevector simulator with lazily merged groups of entangled qubits.

A :class:`World` owns every qubit in a scenario.  Qubits that have never
interacted live in separate state groups, so a world of many independent
small registers stays cheap: cost scales with the largest entangled group,
not with the total qubit count.  Multi-qubit operations merge groups on
demand.  A register of independent qubits is allocated in one pass, and
not at all if any of its states is refused.

The world keeps one registry, the qubit index, which maps every live
qubit to its group; a group lives exactly while one of its qubits does.
One target reaches its group through ``group_of``; several go through
one resolver that checks they are distinct and merges their groups.  A
gate on k targets moves their axes to the front of the group tensor with
one transpose, applies its 2^k matrix as one product and transposes
back (targets that already lead in order skip both).  That product, and
``reduced_density``'s, is followed by one small numpy call that clears the
upper vector state OpenBLAS's AVX-512 gemm leaves dirty, which would slow
the code after it, the bank's hashing included.  A merge joins every
group an operation spans in one balanced product of their amplitude
vectors.  Each distinct gate matrix is checked for unitarity once and
kept read-only in a bounded memo.

Every measurement is one collapse kernel, ``World._collapse``, run with a
basis and a uniform.  Computational (Z) and Hadamard (X) measurement keep
the qubit as a fresh singleton in the observed basis state; Bell
measurement retires the measured pair for good.  Whatever else shared
their group keeps the normalised branch.  ``measure_swap``, the
swap test, is the one measurement outside that kernel: it projects two
registers onto the symmetric or antisymmetric part of their joint state
under exchange, an axis permutation of the group tensor, and keeps both
registers live.

Registers have kernels of their own, one call each.  The norms of a
register being allocated come from one stacked product.
``measure_hadamard_register`` X-measures a register and retires it:
qubit by qubit, in order, it measures, applies a correction to the
qubit's partner on a minus outcome, and retires the qubit, with every
uniform drawn in one call up front, two a qubit (the measurement's, then
the retirement's, as ``measure_hadamard`` and ``discard`` would draw
them).  A qubit whose group is it and its partner alone, nothing
pending, is decided in closed form with every such pair in one pass; any
other goes through ``_collapse``.  ``discard_register`` discards several
qubits with their uniforms drawn in one call.  Each gives the amplitudes
and the PRNG stream of the one-qubit calls it replaces, bit for bit.

Work that nothing may observe yet is deferred until a group is next
used.  ``discard`` retires a qubit at once but defers its collapse, by
the principle of implicit measurement: a qubit that is never used again
may be treated as measured at any later time.  It draws its uniform at
once, so the PRNG stream is unchanged, and queues the qubit on its
group.  ``measure_swap`` draws its verdict from blocks, the groups the
registers touch joined wherever a pair links two of them, since both of
the norms it needs are products over blocks (Buhrman, Cleve, Watrous and
de Wolf, *Quantum fingerprinting*, 2001).  A block of two single qubits
a and b, every block of an honest deposit, is decided in closed form:
its norm is <a|a><b|b> and its overlap |<a|b>|^2, so a pure pair passes
with probability (1 + |<a|b>|^2)/2 and no product state is built.  The
joint branch it projects onto is left pending on the group that now
holds both registers.  A group settles, building its pending branch and
then collapsing its discards in discard order with the stored uniforms,
only when it is next used: ``group_of``, through which every gate,
merge, measurement and introspection reaches a group, settles it first,
as do ``to_json`` and ``check_partition`` for every group.  Settling
runs the arithmetic the eager operation would have run, so the
amplitudes are the same bit for bit.  A group whose every qubit is
discarded is dropped with no arithmetic, so a deposit never builds its
wide swap-test state.

Conventions used throughout the package:

* Within a group, the first listed qubit is the most significant bit of
  the amplitude index (big-endian).
* Bell measurement labels are keyed to the parity of the measured pair:
  the PSI outcomes project onto (|00> +- |11>)/sqrt(2) and the PHI
  outcomes onto (|01> +- |10>)/sqrt(2).  The teleport corrections in
  :mod:`qcheque.teleport` depend on this labelling; do not swap it.
* One seeded PRNG per world drives every Born-rule sample, so a fixed
  seed and operation order reproduce runs bit for bit.
* States are compared up to global phase everywhere.

``reduced_density`` is an introspection tool for analysis: the selftest
and the tests read states with it.  Protocol decision paths must only
interact with the world through gates and measurements.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Owner",
    "QubitHandle",
    "BellOutcome",
    "HadamardOutcome",
    "StateGroup",
    "World",
    "MAX_GROUP_QUBITS",
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "BELL_STATES",
    "haar_random_qubit",
]

SNAPSHOT_FORMAT = "qcheque-world"
SNAPSHOT_VERSION = 1

# The ceiling on the qubits one group may hold.
MAX_GROUP_QUBITS = 24

_SQRT2 = np.sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
# controlled swap on (control, a, b): exchanges |101> and |110>
FREDKIN = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]


class Owner(str, Enum):
    """Custody tag recorded on each qubit at allocation time."""

    ALICE = "alice"
    BANK = "bank"
    PAYEE = "payee"
    ADVERSARY = "adversary"


class QubitHandle(NamedTuple):
    """Opaque reference to one live qubit; stable for the life of a world.

    A tuple of an int and a `str` enum, so hashing and comparing a handle,
    as every group lookup does, runs in C."""

    qid: int
    owner: Owner

    def __repr__(self) -> str:
        return f"q{self.qid}<{self.owner.value}>"


def _field(doc: dict, key, kinds):
    """`doc[key]` if its type is exactly `kinds`, or one of them when a
    tuple (so no bool passes as an int); snapshots are validated, not
    coerced."""
    value = doc[key]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{key} must be {names}, got {value!r}")
    return value


def _document(doc, fmt: str, version: int) -> None:
    """Raise unless `doc` is a JSON object headed with `fmt` at `version`."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    if doc.get("version") != version:
        raise ValueError(f"unsupported {fmt} version {doc.get('version')!r}, expected {version}")


def _handle(pair) -> QubitHandle:
    """A snapshot's ``[qid, owner]`` pair as a handle."""
    qid, owner = pair
    return QubitHandle(_field({"qid": qid}, "qid", int), Owner(owner))


def _handle_pair(q: QubitHandle) -> list:
    """A handle as a snapshot's ``[qid, owner]`` pair; `_handle` reads it."""
    return [q.qid, q.owner.value]


class BellOutcome(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


class HadamardOutcome(Enum):
    PLUS = "+"
    MINUS = "-"


# Projectors for the four Bell outcomes, as 2x2 amplitude tensors over the
# measured pair.  Listed in the fixed order used for cumulative sampling.
BELL_STATES: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PSI_PLUS: np.array([[1, 0], [0, 1]], dtype=complex) / _SQRT2,
    BellOutcome.PSI_MINUS: np.array([[1, 0], [0, -1]], dtype=complex) / _SQRT2,
    BellOutcome.PHI_PLUS: np.array([[0, 1], [1, 0]], dtype=complex) / _SQRT2,
    BellOutcome.PHI_MINUS: np.array([[0, 1], [-1, 0]], dtype=complex) / _SQRT2,
}


def _basis(states) -> tuple:
    """A measurement basis for `World._collapse`, from (label, state) pairs.

    Each entry is (label, flat state, terms), in the fixed order of
    cumulative sampling.  `terms` pairs the index of every nonzero
    amplitude with its conjugate, so projecting onto a state sums only
    those slices of the group tensor and copies nothing else.  The
    conjugates are 0-d complex arrays: numpy scales by one in about half
    the time it takes for a Python or numpy scalar, with the same
    result, since a scalar is converted to that same complex value.
    """
    return tuple(
        (label, np.asarray(state, dtype=complex).reshape(-1),
         tuple((index, np.array(np.conj(amp), dtype=complex)) for index, amp in np.ndenumerate(state) if amp))
        for label, state in states
    )


_Z_BASIS = _basis([(0, np.array([1.0, 0.0])), (1, np.array([0.0, 1.0]))])
_X_BASIS = _basis([(HadamardOutcome.PLUS, HADAMARD[0].real), (HadamardOutcome.MINUS, HADAMARD[1].real)])
_BELL_BASIS = _basis((label, state.real) for label, state in BELL_STATES.items())
# each X-basis branch as (label, coefficient of the measured qubit's 0, of its 1):
# the same complex values `_collapse` scales by
_X_BRANCHES = tuple((label, complex(zero[1]), complex(one[1])) for label, _, (zero, one) in _X_BASIS)

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-9


class StateGroup:
    """One connected component of the world: an ordered qubit list plus
    its own dense amplitude vector of length 2**len(qubits).  The world
    holds a group only through its qubit index, so a group lives exactly
    while one of its qubits does.

    Two kinds of work may wait on a group until it is settled.
    `projection`, when not None, is a swap test's pending branch, held
    in place of amplitudes (`amps` is None): the (factors, pairs, passed)
    that `World._build_branch` turns into the normalised branch, where
    the factors' product, in order, is the group's state before the test.
    `pending` lists the (handle, uniform) of each qubit discarded since,
    still in `qubits`, in discard order."""

    __slots__ = ("qubits", "amps", "pending", "projection")

    def __init__(self, qubits: list[QubitHandle], amps: np.ndarray | None):
        self.qubits = qubits
        self.amps = amps
        self.pending: list[tuple[QubitHandle, float]] = []
        self.projection: tuple | None = None

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def position(self, handle: QubitHandle) -> int:
        return self.qubits.index(handle)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_state_vector(vec: np.ndarray, dim: int) -> np.float64:
    """Raise unless `vec` holds `dim` finite amplitudes of unit norm; return the norm.

    The norm is `np.linalg.norm`'s own formula for a complex vector, so it
    is bit-identical; `math.sqrt` rounds as `np.sqrt` does, on a Python
    float, which is faster to compare.  A NaN or infinite amplitude makes
    the norm NaN or inf and fails the one comparison; only then are the
    amplitudes scanned, to say which check failed.
    """
    if vec.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got {vec.shape}")
    re, im = vec.real, vec.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if not abs(norm - 1.0) <= _NORM_TOL:
        if not np.all(np.isfinite(vec.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        raise ValueError(f"state vector norm {np.float64(norm)!r} is not 1")
    return np.float64(norm)


def _squared_norms(rows: np.ndarray) -> list[float]:
    """<r|r> of each row of a 2-d complex array, as Python floats, from one
    stacked product: per row, bit for bit, `np.vdot(r, r).real` and the
    sum `_check_state_vector` takes.  The product leaves the upper vector
    state clean.  An infinite amplitude makes numpy warn of the invalid
    value it produces; its row's square is then inf or NaN."""
    return np.matmul(rows.conj()[:, None, :], rows[:, :, None]).real.ravel().tolist()


def _as_state_vector(amplitudes, dim: int) -> np.ndarray:
    """A new normalised array of `amplitudes`; a division by a norm of
    exactly 1 is skipped, since it changes no bit."""
    vec = np.array(amplitudes, dtype=complex).reshape(-1)
    norm = _check_state_vector(vec, dim)
    if norm != 1.0:
        vec /= norm
    return vec


def _check_unitary(matrix) -> np.ndarray:
    """A read-only copy of `matrix`, after checking that it is unitary.

    Each distinct matrix (shape and bytes) is checked once and its copy
    kept in a bounded memo; a refusal is never kept, so a non-unitary
    matrix raises on every call.
    """
    gate = np.asarray(matrix, dtype=complex)
    if gate.ndim != 2 or gate.shape[0] != gate.shape[1]:
        raise ValueError("gate must be a square matrix")
    return _validated_gate(gate.shape, gate.tobytes())


@functools.lru_cache(maxsize=256)
def _validated_gate(shape: tuple, raw: bytes) -> np.ndarray:
    gate = np.frombuffer(raw, dtype=complex).reshape(shape)
    dev = np.max(np.abs(gate @ gate.conj().T - np.eye(shape[0])))
    if not dev <= _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    return gate


_CLEAR = np.zeros(4, dtype=complex)  # `_cleared`'s operand, never written


def _cleared(product: np.ndarray) -> np.ndarray:
    """`product`, just made by a BLAS level-3 call, after one small complex
    ufunc, whose loop ends with VZEROUPPER: OpenBLAS's AVX-512 zgemm leaves
    the upper vector state dirty, slowing the SSE code after it.  A batched
    matmul or an elementwise sum leaves it clean, but differs from zgemm in
    the sign of exact zeros and in rounding."""
    np.multiply(_CLEAR, _CLEAR)
    return product


def _product(vectors: list[np.ndarray]) -> np.ndarray:
    """The tensor product of `vectors` in order, as a balanced tree of outer
    products of neighbours: n singletons take a few wide products, not
    n - 1 products whose inner loop is 2 wide."""
    if len(vectors) == 1:
        return vectors[0]
    half = len(vectors) // 2
    return np.multiply.outer(_product(vectors[:half]), _product(vectors[half:])).reshape(-1)


def _swap_axes(qubits: list[QubitHandle], pairs) -> list[int]:
    """The axis permutation of a tensor over `qubits` that exchanges the
    two qubits of each pair."""
    axes = list(range(len(qubits)))
    for a, b in pairs:
        i, j = qubits.index(a), qubits.index(b)
        axes[i], axes[j] = j, i
    return axes


@functools.lru_cache(maxsize=1024)
def _front(positions: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The axis permutation that moves `positions`, in order, to the front
    of an n-axis tensor and keeps the other axes in their order, with its
    inverse; None when they already lead in order, so the permutation is
    the identity.  Memoised: a world has few widths and target positions."""
    if positions == tuple(range(len(positions))):
        return None
    perm = positions + tuple(i for i in range(n) if i not in positions)
    inverse = [0] * n
    for i, axis in enumerate(perm):
        inverse[axis] = i
    return perm, tuple(inverse)


def _pair_terms(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """<a|a><b|b> and |<a|b>|^2 of two single-qubit amplitude vectors: the
    norm and overlap terms of a swap-test block of two single qubits, in
    closed form with no product state."""
    (a0, a1), (b0, b1) = a.tolist(), b.tolist()
    inner = a0.conjugate() * b0 + a1.conjugate() * b1
    norm = (a0 * a0.conjugate() + a1 * a1.conjugate()).real * (b0 * b0.conjugate() + b1 * b1.conjugate()).real
    return norm, (inner * inner.conjugate()).real


class World:
    """A collection of qubits partitioned into independent state groups,
    none of more than ``MAX_GROUP_QUBITS`` qubits: an operation that would
    build a wider group raises instead of thrashing memory.  `seed` seeds
    the world's PRNG; runs with equal seeds and equal operation sequences
    produce identical outcomes."""

    def __init__(self, seed=None):
        self.rng = np.random.default_rng(seed)
        self._index: dict[QubitHandle, StateGroup] = {}
        self._next_qid = 0

    @property
    def _groups(self) -> dict[StateGroup, None]:
        """The live groups, in creation order (see `_place`)."""
        return dict.fromkeys(self._index.values())

    # ------------------------------------------------------------------
    # allocation and lookup
    # ------------------------------------------------------------------

    def allocate(self, owner: Owner, amplitudes=(1.0, 0.0)) -> QubitHandle:
        """Add a fresh single qubit in the given pure state."""
        return self.allocate_group([owner], amplitudes)[0]

    def allocate_register(self, owner: Owner, amplitude_pairs) -> list[QubitHandle]:
        """Add independent qubits, one group each, from (amp0, amp1) pairs,
        in one pass: each row of one array is checked and normalised as
        `allocate` does it, and a refused row allocates nothing.

        Every row's norm comes from one stacked product, `_squared_norms`,
        bit for bit the norm `_check_state_vector` takes; that check runs
        row by row only when some row fails, to raise with its message."""
        owner = owner if type(owner) is Owner else Owner(owner)
        # one flat row per pair, as `allocate` flattens its amplitudes; no pairs, (0, 0)
        rows = np.array(amplitude_pairs, dtype=complex)
        rows = rows.reshape(len(rows), rows.size // max(len(rows), 1))
        norms = list(map(math.sqrt, _squared_norms(rows)))
        if rows.shape[1] != 2 or not all(abs(norm - 1.0) <= _NORM_TOL for norm in norms):
            for row in rows:
                _check_state_vector(row, 2)
        for i, norm in enumerate(norms):
            if norm != 1.0:
                rows[i] /= norm
        handles = [QubitHandle(qid, owner) for qid in range(self._next_qid, self._next_qid + len(rows))]
        self._next_qid += len(rows)
        for h, row in zip(handles, rows):
            self._index[h] = StateGroup([h], row)
        return handles

    def allocate_group(self, owners, amplitudes) -> list[QubitHandle]:
        """Add a fresh, possibly entangled group of len(owners) qubits."""
        # numbered from the next qid; the enum call costs more than the
        # check that skips it
        handles = [QubitHandle(qid, owner if type(owner) is Owner else Owner(owner))
                   for qid, owner in enumerate(owners, self._next_qid)]
        n = len(handles)
        if n < 1:
            raise ValueError("need at least one owner")
        if n > MAX_GROUP_QUBITS:
            raise ValueError(f"group of {n} qubits exceeds ceiling {MAX_GROUP_QUBITS}")
        group = StateGroup(list(handles), _as_state_vector(amplitudes, 2**n))
        self._next_qid += n
        for h in handles:
            self._index[h] = group
        return handles

    def _place(self, group: StateGroup) -> None:
        """Point a new group's qubits, all live, at it.  Each is deleted and
        inserted again so that it enters the index last: the live groups,
        in order of their first qubit there, stay in creation order."""
        for q in group.qubits:
            del self._index[q]
            self._index[q] = group

    def __contains__(self, handle: QubitHandle) -> bool:
        return handle in self._index

    def group_of(self, handle: QubitHandle) -> StateGroup:
        """The group holding a live qubit, settled: its pending swap-test
        branch built and its pending discards collapsed."""
        try:
            group = self._index[handle]
        except KeyError:
            raise ValueError(f"unknown or retired qubit handle {handle!r}") from None
        if group.pending or group.projection is not None:
            self._settle(group)
        return group

    def _settle(self, group: StateGroup) -> None:
        """Build a group's pending swap-test branch, which came first, then
        collapse its pending discards in discard order.  The projection
        and each discard leave the group only once their arithmetic has
        succeeded, so a refused branch or collapse leaves the group as it
        was."""
        if group.projection is not None:
            self._build_branch(group)
        while group.pending:
            q, u = group.pending[0]
            self._collapse(group, [q], _Z_BASIS, u)
            del group.pending[0]

    @property
    def qubit_count(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # unitary operations
    # ------------------------------------------------------------------

    def apply_gate(self, gate, targets) -> None:
        """Apply a unitary on k >= 1 distinct target handles; the gate is
        2**k square, its first index bit the first target.

        Targets in different groups cause a merge first; the merged group
        may hold at most ``MAX_GROUP_QUBITS`` qubits.
        """
        targets = list(targets)
        gate = _check_unitary(gate)
        if not targets or gate.shape[0] != 2 ** len(targets):
            raise ValueError("gate dimension must be 2**k for k >= 1 targets")
        group = self._group_for(targets)
        self._apply_unitary(group, gate, tuple(map(group.position, targets)))

    def apply_cswap(self, control: QubitHandle, a: QubitHandle, b: QubitHandle) -> None:
        """Controlled swap of qubits a and b, conditioned on the control."""
        self.apply_gate(FREDKIN, [control, a, b])

    def _group_for(self, targets: list[QubitHandle]) -> StateGroup:
        """The one group that holds every target, settled: the targets'
        own group, or the merge of theirs.  Targets must be distinct."""
        if len(targets) == 1:
            return self.group_of(targets[0])
        if len(set(targets)) != len(targets):
            raise ValueError("targets must be distinct")
        groups = self._groups_for(targets)
        return groups[0] if len(groups) == 1 else self._merge(*groups)

    def _merge(self, *groups: StateGroup) -> StateGroup:
        """Replace `groups` by one new group whose qubits are theirs in
        order.  A merge over the ceiling is refused before anything
        changes."""
        merged = StateGroup(self._joined(groups), _product([g.amps for g in groups]))
        self._place(merged)
        return merged

    def _joined(self, groups) -> list[QubitHandle]:
        """The qubits of `groups` in order, refused over the ceiling; every
        operation that joins groups, merge or introspection, checks here."""
        qubits = [q for g in groups for q in g.qubits]
        if len(qubits) > MAX_GROUP_QUBITS:
            raise ValueError(f"the operation needs a {len(qubits)}-qubit group, "
                             f"over the ceiling of {MAX_GROUP_QUBITS}")
        return qubits

    def _apply_unitary(self, group: StateGroup, gate: np.ndarray, positions: tuple[int, ...]) -> None:
        n = len(group.qubits)
        front = _front(positions, n)
        if front is None:  # the targets lead: no transpose either way
            group.amps = _cleared(gate @ group.amps.reshape(gate.shape[1], -1)).reshape(-1)
            return
        perm, inverse = front
        psi = group.amps.reshape((2,) * n).transpose(perm).reshape(gate.shape[1], -1)
        group.amps = _cleared(gate @ psi).reshape((2,) * n).transpose(inverse).reshape(-1)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure_computational(self, q: QubitHandle) -> int:
        """Projective Z-basis measurement.  The measured qubit factors out
        into its own singleton group holding |0> or |1>."""
        return self._measure([q], _Z_BASIS, retire=False)

    def measure_hadamard(self, q: QubitHandle) -> HadamardOutcome:
        """Projective X-basis measurement; the qubit is left in |+> or |->."""
        return self._measure([q], _X_BASIS, retire=False)

    def measure_hadamard_register(self, register, partners, correction) -> list[HadamardOutcome]:
        """X-measure each qubit of `register`, in order, and retire it; after
        a minus outcome apply the one-qubit unitary `correction` to the qubit
        of `partners` at the same place, through `apply_gate`, before the
        next qubit is measured.  Returns the outcomes in order.

        The handles must be live and distinct and the two sequences equal
        in length, and `correction` a 2x2 unitary; all of that is checked
        before anything is drawn.  Then two uniforms per qubit are drawn in
        one call, in the order `measure_hadamard` and then `discard` of
        each qubit in turn would draw them: the first picks the outcome,
        the second is the retirement's, which no arithmetic reads.

        A qubit whose group holds it and its partner and nothing pending,
        as every vault qubit of an honest deposit does, is decided in one
        pass over all such pairs: both branches of each are Python complex
        sums of its four amplitudes, one `_squared_norms` product gives
        every branch's probability, and the kept branch is scaled as
        `_collapse` scales it, so the amplitudes are the same bit for bit.
        Any other qubit goes through `group_of` and `_collapse`.

        A zero branch at place i raises RuntimeError once every uniform is
        drawn: the qubits before i are measured, corrected and retired;
        the qubit at i and those after it are live and unchanged.
        """
        register, partners = list(register), list(partners)
        if len(register) != len(partners):
            raise ValueError("register and partners differ in length")
        index = self._index
        (plus, p0, p1), (minus, m0, m1) = _X_BRANCHES
        # each pair group's branches, four amplitudes a pair, read before anything changes
        groups, branches = [], []
        for q, partner in zip(register, partners):
            for h in (q, partner):
                if h not in index:
                    raise ValueError(f"unknown or retired qubit handle {h!r}")
            group = index[q]
            if (len(group.qubits) == 2 and partner in group.qubits
                    and not group.pending and group.projection is None):
                a0, a1, a2, a3 = group.amps.tolist()
                # the partner's amplitudes with q at 0 and at 1
                (x0, x1), (y0, y1) = ((a0, a1), (a2, a3)) if group.qubits[0] == q else ((a0, a2), (a1, a3))
                branches += (p0 * x0 + p1 * y0, p0 * x1 + p1 * y1, m0 * x0 + m1 * y0, m0 * x1 + m1 * y1)
            else:
                group = None
            groups.append(group)
        if len(set(register + partners)) != 2 * len(register):
            raise ValueError("register and partners overlap or repeat a handle")
        if _check_unitary(correction).shape != (2, 2):
            raise ValueError("correction must be a one-qubit gate")
        uniforms = self.rng.random(2 * len(register)).tolist()
        if branches:
            # `_collapse`'s `np.vdot(k, k).real` of every branch k, bit for bit
            probabilities = _squared_norms(np.array(branches).reshape(-1, 2))
        outcomes, row = [], 0  # rows `row` and `row + 1` are the next pair group's plus and minus branches
        for q, partner, group, u in zip(register, partners, groups, uniforms[::2]):
            if group is None:
                label, _ = self._collapse(self.group_of(q), [q], _X_BASIS, u)
            else:
                label, chosen = (plus, row) if u < probabilities[row] else (minus, row + 1)
                norm = math.sqrt(probabilities[chosen])
                if norm < 1e-12:
                    raise RuntimeError("collapsed onto a zero branch; numerical state is corrupt")
                scale = complex(1.0 / norm)  # a complex product, as numpy scales a complex array
                group.qubits = [partner]
                group.amps = np.array([branches[2 * chosen] * scale, branches[2 * chosen + 1] * scale])
                row += 2
            del index[q]
            if label is minus:
                self.apply_gate(correction, [partner])
            outcomes.append(label)
        return outcomes

    def measure_bell(self, q1: QubitHandle, q2: QubitHandle) -> BellOutcome:
        """Joint Bell-basis measurement of a qubit pair.

        Both measured qubits are retired from the world; only the label
        survives, and whatever else was entangled with the pair collapses
        onto the matching branch.
        """
        return self._measure([q1, q2], _BELL_BASIS, retire=True)

    def discard(self, q: QubitHandle) -> None:
        """Retire a qubit's handle; its Z measurement is deferred.

        The uniform of that measurement is drawn at once and queued with
        the qubit on its group, which collapses only when it is next used:
        `group_of`, `to_json` and `check_partition` settle it.  When a
        group's last live qubit is discarded the group is dropped with no
        arithmetic.  Used to destroy cheque registers after verification
        and to clean up scratch ancillas; unknown handles raise.
        """
        try:
            group = self._index.pop(q)
        except KeyError:
            raise ValueError(f"unknown or retired qubit handle {q!r}") from None
        group.pending.append((q, self.rng.random()))

    def discard_register(self, handles) -> None:
        """`discard` each of `handles` in order, with their uniforms drawn in
        one call: the same values, and the same PRNG state after, as one
        `discard` per handle.  An unknown, retired or repeated handle is
        refused before anything is drawn or retired."""
        handles = list(handles)
        index = self._index
        for q in handles:
            if q not in index:
                raise ValueError(f"unknown or retired qubit handle {q!r}")
        if len(set(handles)) != len(handles):
            raise ValueError("cannot discard a qubit handle twice")
        for q, u in zip(handles, self.rng.random(len(handles)).tolist()):
            index.pop(q).pending.append((q, u))

    def measure_swap(self, register_a, register_b) -> bool:
        """Swap-test measurement of two equal-length registers, each a
        sequence of handles.

        With S the permutation that exchanges register_a with register_b,
        the pass outcome projects onto (I+S)/2 and the fail outcome onto
        (I-S)/2, so the test passes with probability
        (<psi|psi> + <psi|S|psi>)/2.  Both terms are products over
        *blocks*, the groups the registers touch joined wherever a pair
        links two of them, so the verdict is drawn from each block's own
        small product, never from the joint state.  One walk over the
        pairs finds the blocks of a test of several pairs; a test of one
        pair, as every amount test of a deposit is, is one block with no
        walk.  A block of two single qubits a and b needs no product: its
        norm is <a|a><b|b> and its overlap |<a|b>|^2.

        Both registers stay live, in one group at the place and in the
        qubit order a merge would give it.  That group holds the
        projection pending, not amplitudes: `_settle` builds the
        normalised branch when the group is next used, and a group whose
        every qubit is discarded is dropped unbuilt.  A merge over the
        ceiling and a zero branch are refused before anything changes.
        Returns True on a pass.
        """
        if len(register_a) != len(register_b):
            raise ValueError("registers differ in length")
        groups, pairs, blocks = self._swap_blocks(register_a, register_b)
        qubits = self._joined(groups)
        norm = overlap = 1.0
        for block, block_pairs in blocks:
            if len(block) == 2 and len(block[0].qubits) == len(block[1].qubits) == 1:
                block_norm, block_overlap = _pair_terms(block[0].amps, block[1].amps)
                norm *= block_norm
                overlap *= block_overlap
                continue
            psi = _product([g.amps for g in block])
            block_qubits = [q for g in block for q in g.qubits]
            swapped = psi.reshape((2,) * len(block_qubits)).transpose(_swap_axes(block_qubits, block_pairs))
            norm *= np.vdot(psi, psi).real
            overlap *= np.vdot(psi, swapped).real
        u = self.rng.random()
        passed = u < float(norm + overlap) / 2.0
        p = float(norm + overlap if passed else norm - overlap) / 2.0
        if not p >= 1e-24:  # a branch norm under 1e-12, or NaN
            raise RuntimeError("collapsed onto a zero branch; numerical state is corrupt")
        if len(groups) == 1:
            group = groups[0]
        else:
            group = StateGroup(qubits, None)
            self._place(group)
        group.amps, group.projection = None, ([g.amps for g in groups], pairs, passed)
        # The ancilla circuit drew a second uniform when it discarded the
        # ancilla; drawing it here keeps fixed-seed reports byte-identical.
        self.rng.random()
        return passed

    def _swap_blocks(self, register_a, register_b) -> tuple[list[StateGroup], list, list]:
        """The settled groups that two equal-length registers touch, in
        first-use order, their pairs, and their blocks in the order of
        their first pairs: the components that the pairs join, each as its
        groups and its pairs.  A block that holds every group is `groups`
        itself, with every pair, as one pair's block always is.  One walk
        over the pairs finds all three.  The registers must be non-empty
        and name no handle twice."""
        if not register_a:
            raise ValueError("registers must not be empty")
        # Pair by pair, so the one group orders the qubits as the Fredkin
        # cascade this measurement replaces did.
        pairs = list(zip(register_a, register_b))
        if len({*register_a, *register_b}) != 2 * len(pairs):
            raise ValueError("registers overlap or repeat a handle")
        if len(pairs) == 1:  # one pair is one block: no walk
            group_a, group_b = self.group_of(pairs[0][0]), self.group_of(pairs[0][1])
            groups = [group_a] if group_a is group_b else [group_a, group_b]
            return groups, pairs, [(groups, pairs)]
        # Keyed by group in first-use order.  A pair joins the block of its
        # b group onto the block of its a group; a block keeps its pairs in
        # pair order.
        block_of: dict[StateGroup, tuple[list[StateGroup], list]] = {}
        for pair in pairs:
            group_a, group_b = self.group_of(pair[0]), self.group_of(pair[1])
            block = block_of.get(group_a)
            if block is None:
                block = block_of[group_a] = ([group_a], [])
            other = block_of.get(group_b)
            if other is None:
                block[0].append(group_b)
                block_of[group_b] = block
            elif other is not block:
                block[0].extend(other[0])
                block[1][:] = sorted(block[1] + other[1], key=pairs.index)
                for g in other[0]:
                    block_of[g] = block
            block[1].append(pair)
        groups = list(block_of)
        if len(block[0]) == len(groups):
            return groups, pairs, [(groups, pairs)]
        # a block's first group in first-use order came with its first pair
        return groups, pairs, list({id(b): b for b in block_of.values()}.values())

    def _build_branch(self, group: StateGroup) -> None:
        """Turn a group's pending swap-test projection into amplitudes.

        The product of the factors, in merge order, is the state the test
        measured; its pass or fail branch psi +- S psi, normalised by one
        real scale, becomes the group's amplitudes.  A zero branch raises
        before the group changes.
        """
        factors, pairs, passed = group.projection
        psi = _product(factors).reshape((2,) * group.n_qubits)
        swapped = psi.transpose(_swap_axes(group.qubits, pairs))
        kept = (np.add if passed else np.subtract)(psi, swapped)
        norm = np.sqrt(float(np.vdot(kept, kept).real) / 4.0)
        if norm < 1e-12:
            raise RuntimeError("collapsed onto a zero branch; numerical state is corrupt")
        kept *= 1.0 / (2.0 * norm)
        group.amps, group.projection = kept.reshape(-1), None

    def _measure(self, targets: list[QubitHandle], basis, retire: bool):
        """Born-rule measurement of `targets` in a basis built by `_basis`,
        with one uniform drawn now.  The targets are then retired, or
        re-adopted as a fresh group holding the chosen basis state.
        Returns the label."""
        group = self._group_for(targets)
        label, state = self._collapse(group, targets, basis, self.rng.random())
        if retire:
            for t in targets:
                del self._index[t]
        else:
            self._place(StateGroup(list(targets), state.copy()))
        return label

    def _collapse(self, group: StateGroup, targets: list[QubitHandle], basis, u: float):
        """Project `targets` out of `group` onto the branch that uniform `u`
        picks; return its (label, flat basis state).

        The branches are projected out in basis order until their running
        probability exceeds `u`, so later branches cost nothing.  The
        normalised residual becomes the group's amplitudes and the targets
        leave its qubit list, unless they were all of it.  A zero branch
        raises before anything changes.
        """
        k, n = len(targets), len(group.qubits)
        front = _front(tuple(map(group.position, targets)), n)
        psi = group.amps.reshape((2,) * n)
        if front is not None:
            psi = psi.transpose(front[0])
        kept = np.empty(group.amps.size >> k, dtype=complex)
        branch = kept.reshape((2,) * (n - k))
        acc = 0.0
        for label, state, terms in basis:
            index, amp = terms[0]
            np.multiply(amp, psi[index], out=branch)
            for index, amp in terms[1:]:
                branch += amp * psi[index]
            p = float(np.vdot(kept, kept).real)
            acc += p
            if u < acc:
                break
        norm = math.sqrt(p)
        if norm < 1e-12:
            raise RuntimeError("collapsed onto a zero branch; numerical state is corrupt")
        if k < n:
            group.qubits = [q for q in group.qubits if q not in targets]
            # a real scale; a complex division costs 4-7x more
            group.amps = np.multiply(kept, 1.0 / norm, out=kept)
        return label, state

    # ------------------------------------------------------------------
    # introspection (analysis only, never on a decision path)
    # ------------------------------------------------------------------

    def reduced_density(self, subset) -> np.ndarray:
        """Density matrix of the listed qubits, axes in the given order."""
        subset = list(subset)
        if len(set(subset)) != len(subset):
            raise ValueError("subset handles must be distinct")
        if not subset:
            raise ValueError("subset must not be empty")
        groups = self._groups_for(subset)
        joined = self._joined(groups)
        psi = _product([g.amps for g in groups])
        front = _front(tuple(map(joined.index, subset)), len(joined))
        if front is not None:
            psi = psi.reshape((2,) * len(joined)).transpose(front[0])
        rows = psi.reshape(2 ** len(subset), -1)
        return _cleared(np.dot(rows, rows.conj().T))  # matmul rounds some shapes differently

    def _groups_for(self, handles) -> list[StateGroup]:
        """The settled groups of `handles`, each once, in first-use order;
        an operation spans few groups, so a list scan beats a dict."""
        groups: list[StateGroup] = []
        for q in handles:
            g = self.group_of(q)
            if g not in groups:
                groups.append(g)
        return groups

    def check_partition(self) -> None:
        """Settle every group, then assert the group partition invariant;
        raises on violation."""
        seen: set[QubitHandle] = set()
        for g in self._settle_all():
            if not 1 <= g.n_qubits <= MAX_GROUP_QUBITS:
                raise AssertionError(f"group of {g.n_qubits} qubits is outside "
                                     f"[1, max_group_qubits={MAX_GROUP_QUBITS}]")
            if len(g.amps) != 2**g.n_qubits:
                raise AssertionError("group amplitude length mismatch")
            if abs(g.norm() - 1.0) > 1e-6:
                raise AssertionError(f"group norm drifted to {g.norm()!r}")
            for q in g.qubits:
                if q in seen:
                    raise AssertionError(f"{q!r} appears in two groups")
                seen.add(q)
                if self._index.get(q) is not g:
                    raise AssertionError(f"index points {q!r} at the wrong group")
        if seen != set(self._index):
            raise AssertionError("index and group contents disagree")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _settle_all(self) -> list[StateGroup]:
        """Settle every live group; return them in creation order."""
        groups = list(self._groups)
        for g in groups:
            self._settle(g)
        return groups

    def to_json(self) -> dict:
        groups = []
        for g in self._settle_all():
            groups.append(
                {
                    "qubits": list(map(_handle_pair, g.qubits)),
                    "amplitudes": [[float(a.real), float(a.imag)] for a in g.amps],
                }
            )
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "max_group_qubits": MAX_GROUP_QUBITS,
            "next_qid": self._next_qid,
            "rng": self.rng.bit_generator.state,
            "groups": groups,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "World":
        """Rebuild a world from `to_json` output.

        The snapshot's ``max_group_qubits`` must equal ``MAX_GROUP_QUBITS``.
        Every group must hold one to that many qubits and finite amplitudes
        of unit norm, every qubit id must be unique and below ``next_qid``,
        and ``next_qid`` must not be negative.  Amplitudes are loaded as
        stored, not renormalised, so saving a world's own `to_json` output
        back gives the same document.  A document that only means the same
        is not refused here: numpy coerces the PRNG words, a zero amplitude
        written ``0`` saves as ``0.0``, and unknown keys are ignored.
        ``qcheque restore`` refuses those by re-saving what it loaded.
        """
        _document(doc, SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
        if _field(doc, "max_group_qubits", int) != MAX_GROUP_QUBITS:
            raise ValueError(f"snapshot group ceiling {doc['max_group_qubits']} is not {MAX_GROUP_QUBITS}")
        world = cls(seed=0)
        state = doc["rng"]
        if not isinstance(state, dict):
            raise ValueError("snapshot PRNG state is not a JSON object")
        if state.get("bit_generator") != world.rng.bit_generator.state["bit_generator"]:
            raise ValueError("snapshot was produced with a different PRNG")
        world.rng.bit_generator.state = state
        world._next_qid = _field(doc, "next_qid", int)
        if world._next_qid < 0:
            raise ValueError(f"snapshot next_qid {world._next_qid} is negative")
        qids = set()
        for entry in doc["groups"]:
            handles = list(map(_handle, entry["qubits"]))
            if not 1 <= len(handles) <= MAX_GROUP_QUBITS:
                raise ValueError(f"snapshot group of {len(handles)} qubits is outside "
                                 f"[1, max_group_qubits={MAX_GROUP_QUBITS}]")
            amps = np.array([complex(re, im) for re, im in entry["amplitudes"]], dtype=complex)
            _check_state_vector(amps, 2 ** len(handles))
            group = StateGroup(handles, amps)
            for q in handles:
                if q.qid in qids:
                    raise ValueError(f"snapshot lists qubit id {q.qid} twice")
                if not 0 <= q.qid < world._next_qid:
                    raise ValueError(
                        f"snapshot qubit id {q.qid} is outside [0, next_qid={world._next_qid})"
                    )
                qids.add(q.qid)
                world._index[q] = group
        return world


# ----------------------------------------------------------------------
# random state helpers
# ----------------------------------------------------------------------


def haar_random_qubit(rng: np.random.Generator) -> np.ndarray:
    """A single-qubit pure state drawn uniformly from the sphere."""
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)

