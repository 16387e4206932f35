"""Span tracing of qcheque from outside the package.

`Tracer.installed()` replaces each traced function where the package
looks it up: the class attribute for a method, and every qcheque
module's global for a free function.  The replacement records one span
per call (name, start, end, parent span, trial id) in memory and calls
the original with the same arguments, so no RNG draw or verdict changes.
Everything is put back when the context exits.

The trial id is the seed of the most recently built `World`: trials are
seeded ``[seed, t]`` and the clone oracle ``[seed, 2**32]``.

Around each outermost simulator call the tracer also reads the target
groups through the public ``World.group_of(q).n_qubits`` to count merges,
the widest group touched, and 2**width summed over calls.  The last is a
computed figure, not a measured one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import qcheque
from qcheque import sim

# (span name, module, owning class or None, function).  `stats` and
# `cli` are left out: neither is on the path a trial takes.
TRACED = (
    ("sim.apply_gate", "sim", "World", "apply_gate"),
    ("sim.apply_cswap", "sim", "World", "apply_cswap"),
    ("sim.measure_computational", "sim", "World", "measure_computational"),
    ("sim.measure_bell", "sim", "World", "measure_bell"),
    ("sim.discard", "sim", "World", "discard"),
    ("sim.allocate_group", "sim", "World", "allocate_group"),
    ("sim.reduced_density", "sim", "World", "reduced_density"),
    ("swaptest.swap_test", "swaptest", None, "swap_test"),
    ("signatures.generate_keypair", "signatures", "LamportSignatureScheme", "generate_keypair"),
    ("signatures.sign", "signatures", "LamportSignatureScheme", "sign"),
    ("signatures.verify", "signatures", "LamportSignatureScheme", "verify"),
    ("teleport.prepare_ghz", "teleport", None, "prepare_ghz"),
    ("teleport.encode_qubit", "teleport", None, "encode_qubit"),
    ("teleport.recover_qubit", "teleport", None, "recover_qubit"),
    ("qowf.derive_angles", "qowf", None, "derive_angles"),
    ("bits.frame_fields", "bits", None, "frame_fields"),
    ("bits.BitString.random", "bits", "BitString", "random"),
    ("protocol.sign_cheque", "protocol", None, "sign_cheque"),
    ("protocol.gen_account", "protocol", "Bank", "gen_account"),
    ("protocol.verify_cheque", "protocol", "Bank", "verify_cheque"),
    ("adversary.clone_qubit", "adversary", None, "clone_qubit"),
)
HARNESS = "adversary.harness"
SWAP_SPAN = "swaptest.swap_test"

# Target qubits of each simulator call, in the method's own parameter
# names so keyword calls bind the same way.
_SIM_TARGETS = {
    "apply_gate": lambda self, gate, targets: targets,
    "apply_cswap": lambda self, control, a, b: (control, a, b),
    "measure_computational": lambda self, q: (q,),
    "measure_bell": lambda self, q1, q2: (q1, q2),
    "discard": lambda self, q: (q,),
    "reduced_density": lambda self, subset: subset,
}
_MERGING = ("apply_gate", "apply_cswap", "measure_bell")


class Tracer:
    """In-memory span recorder plus the simulator's deterministic counters."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, trial id)
        self._stack: list[int] = []
        self._sim_depth = 0
        self.trial = None
        self.merges = 0
        self.peak_group_qubits = 0
        self.amps_touched = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn, label=None):
        """Return `fn` recording one span per call.  `label(args)` may
        refine the span name from the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = label(name, args) if label else name
                spans[idx] = (span, start, end, parent, self.trial)

        return traced

    def _wrap_sim(self, name: str, method: str, fn):
        traced = self.wrap(name, fn)
        targets_of = _SIM_TARGETS.get(method)
        merging = method in _MERGING

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._sim_depth == 0:
                self._count(method, targets_of, merging, args, kwargs)
            self._sim_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._sim_depth -= 1

        return counted

    def _count(self, method, targets_of, merging, args, kwargs) -> None:
        if targets_of is None:  # allocate_group: a fresh group, no merge
            owners = args[1] if len(args) > 1 else kwargs.get("owners")
            if isinstance(owners, (list, tuple)):
                self._touch(len(owners))
            return
        try:
            world = args[0]
            handles = targets_of(*args, **kwargs)
            if not isinstance(handles, (list, tuple)):
                return  # never consume an iterator the call still needs
            groups = {id(g): g.n_qubits for g in map(world.group_of, handles)}
        except (TypeError, ValueError):
            return  # the call itself raises on these arguments
        if merging:
            self.merges += len(groups) - 1
        self._touch(sum(groups.values()))

    def _touch(self, width: int) -> None:
        self.peak_group_qubits = max(self.peak_group_qubits, width)
        self.amps_touched += 2**width

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for name, module_name, owner, function in TRACED:
                module = getattr(qcheque, module_name)
                if owner is None:
                    original = getattr(module, function)
                    label = _swap_label if name == SWAP_SPAN else None
                    wrapped = self.wrap(name, original, label)
                    for mod in _qcheque_modules():
                        if getattr(mod, function, None) is original:
                            stack.enter_context(patched(mod, function, wrapped))
                    continue
                cls = getattr(module, owner)
                raw = cls.__dict__[function]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                elif module_name == "sim":
                    wrapped = self._wrap_sim(name, function, raw)
                else:
                    wrapped = self.wrap(name, raw)
                stack.enter_context(patched(cls, function, wrapped))
            stack.enter_context(patched(sim.World, "__init__", self._trial_marker(sim.World.__init__)))
            yield self

    def _trial_marker(self, init):
        @functools.wraps(init)
        def __init__(world, *args, **kwargs):
            self.trial = kwargs["seed"] if "seed" in kwargs else (args[0] if args else None)
            init(world, *args, **kwargs)

        return __init__

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def layer_stats(self, trials: int) -> dict:
        """Per-name calls, self and inclusive times, divided by `trials`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl: dict[str, list[float]] = {}
        self_time: dict[str, float] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            names = [name]
            if name.startswith(SWAP_SPAN + ".w"):
                names.append(SWAP_SPAN)
            for n in names:
                incl.setdefault(n, []).append(end - start)
                self_time[n] = self_time.get(n, 0.0) + (end - start - children)
        out = {}
        for n, durations in incl.items():
            out[n] = {
                "calls_per_trial": len(durations) / trials,
                "self_ms_per_trial": self_time[n] * 1e3 / trials,
                "ms_per_trial": sum(durations) * 1e3 / trials,
                "us_per_call": statistics.median(durations) * 1e6,
            }
        return out

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - t0, 9), "end": round(end - t0, 9),
                    "parent": parent, "trial": trial,
                }))
                fh.write("\n")


def _swap_label(name: str, args) -> str:
    try:
        return f"{name}.w{len(args[1])}"
    except (IndexError, TypeError):
        return name


def _qcheque_modules():
    return [m for k, m in list(sys.modules.items()) if k == "qcheque" or k.startswith("qcheque.")]


@contextlib.contextmanager
def patched(target, attr: str, value):
    """Set `target.attr` to `value` for the duration of the context."""
    original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)
