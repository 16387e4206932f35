#!/usr/bin/env python3
"""Benchmark of the qcheque trial harness.

    python3 perfbench/run.py --workload honest-l8n8 --seed 2015 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each run drives ``run_honest`` or ``run_attack`` on one thread of one
process, in harness calls of a fixed trial count.  Call k uses harness
seed ``seed * 65536 + k``, so its trials are seeded ``[seed * 65536 + k, t]``
and the same --seed always gives the same inputs.

``--trace 0`` repeats calls until --seconds have passed and prints the
end-to-end metrics.  Only each harness call and each ``Bank.verify_cheque``
are timed, and each time is scaled to the machine's usual speed by a
reference block timed between calls in a process of its own (see
REFERENCE_SECONDS).  ``setup_s`` is the median, over fresh processes, of
the time from process start to the end of one warm-up trial.

``--trace 1`` runs a fixed set of calls twice, untraced and then traced
(see tracer.py), and prints the per-layer metrics.  Its counts repeat
exactly for a given seed.  The spans are written to ``perfbench/out/``.

Every run checks each trial's deposits against the workload's invariant
and the run's success rate against the harness's analytic rate (4 sigma).
On any failure it prints the result with ``"correct": false`` and exits 1.
The last line of stdout is the result; the line before it is a report
with machine facts and a sha256 fingerprint of each call's statistics.

Seeds: 2015 is the default.  5251 is held out: check a claimed gain on
it as well, since no change was tuned against it.
"""

import os

# One thread: this must precede the numpy import.  The OpenBLAS that
# numpy links can start up to 64 threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "qcheque" / "__init__.py").is_file():
    sys.exit(f"qcheque sources not found under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy

import qcheque
from qcheque import Bank, SchemeParams, run_attack, run_honest
from qcheque.stats import within_sigma
from tracer import HARNESS, SWAP_SPAN, TRACED, Tracer, patched

DEFAULT_SEED = 2015
SETUP_PROBES = 5
MIN_CALLS = 3
TRACE_CALLS = 10  # harness calls in a traced run, each made untraced and traced
WARM_UP_CALL = 65535  # call index no timed run reaches
OUT = HERE / "out"
SWAP_WIDTHS = (1, 2, 3, 8)  # register widths the workloads swap-test

# The speed of the 2-CPU virtual machine this benchmark was built on
# drifts by up to 2x within seconds, whatever runs in the process.  So the
# reference block of speedref.py is timed in a helper process just before
# and just after every harness call, while this process waits, and the
# call's times are multiplied by REFERENCE_SECONDS / (mean of the two
# samples).  Calls are kept to a few tenths of a second so that the
# samples bracket them closely.  Each timed figure is taken per call,
# scaled, and the median over calls is reported.  The figures read as
# seconds on that machine at its usual speed; the raw figures are in the
# report line.
REFERENCE_SECONDS = 0.0006


@dataclass(frozen=True)
class Deposit:
    """One `Bank.verify_cheque` call as the benchmark saw it."""

    world: int  # id() of the trial's world
    accepted: bool
    reached_swap_tests: bool
    seconds: float
    spent: bool | None  # ledger state afterwards, where the workload checks it


@dataclass(frozen=True)
class Workload:
    params: SchemeParams
    strategy: str  # "honest" or a `run_attack` strategy
    call_trials: int
    deposits_per_trial: int
    trial_ok: Callable[[list], bool]
    check_ledger: bool = False

    def run(self, seed: int, trials: int):
        if self.strategy == "honest":
            return run_honest(self.params, trials, seed)
        return run_attack(self.strategy, self.params, trials, seed)


_FAST_KEYS = {"key_bits": 64, "serial_bits": 64}

WORKLOADS = {
    # The paper's reference configuration: one 8-wide swap test grows a
    # 17-qubit group.  Moves with swap-test and kernel-size work.
    "honest-l8n8": Workload(
        SchemeParams(), "honest", call_trials=10, deposits_per_trial=1,
        trial_ok=lambda d: d[0].accepted and d[0].spent, check_ledger=True,
    ),
    # Tiny groups; half the time is Lamport keygen, and the second deposit
    # is a ledger refusal with no quantum work.  Moves with keygen work,
    # not with swap-test work.
    "replay-fast": Workload(
        SchemeParams(ghz_triples=2, auth_qubits=2, **_FAST_KEYS), "replay",
        call_trials=20, deposits_per_trial=2,
        trial_ok=lambda d: d[0].accepted and not d[1].accepted,
    ),
    # Many gates on small groups: per-call overhead dominates.  Most
    # forged deposits are rejected, so verify's reject branch runs too.
    # Each call also builds one clone-oracle world, about a trial's work.
    "clone-l8n3": Workload(
        SchemeParams(ghz_triples=8, auth_qubits=3, **_FAST_KEYS), "clone-double-spend",
        call_trials=20, deposits_per_trial=2,
        trial_ok=lambda d: not d[1].accepted,
    ),
}

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("deposit_ms_p50", "ms"),
    ("deposit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_LAYER_STATS = (
    ("calls_per_trial", "count"),
    ("self_ms_per_trial", "ms"),
    ("ms_per_trial", "ms"),
    ("us_per_call", "us"),
)


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    f"{name}.{stat}": unit
    for name in [t[0] for t in TRACED] + [f"{SWAP_SPAN}.w{w}" for w in SWAP_WIDTHS]
    for stat, unit in _LAYER_STATS
} | {
    "sim.merges_per_trial": "count",
    "sim.peak_group_qubits": "qubits",
    "sim.amps_touched_per_trial": "amps",
    "adversary.harness.self_ms_per_trial": "ms",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# one harness call
# ----------------------------------------------------------------------


class SpeedReference:
    """The helper process of speedref.py, which times the reference block."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedref.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def sample(self) -> float:
        """Seconds of the reference block, timed now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())


def speed_scale(before: float, after: float) -> float:
    """Multiplies raw seconds of an interval into reference seconds,
    from reference samples taken just before and just after it."""
    return REFERENCE_SECONDS / ((before + after) / 2)


class DepositRecorder:
    """Times every `Bank.verify_cheque` call while installed."""

    def __init__(self, check_ledger: bool):
        self.check_ledger = check_ledger
        self.deposits: list[Deposit] = []

    def installed(self):
        original = Bank.verify_cheque
        clock = time.perf_counter

        def verify_cheque(bank, world, cheque):
            start = clock()
            result = original(bank, world, cheque)
            seconds = clock() - start
            spent = bank.spent_ledger_check(cheque.serial) if self.check_ledger else None
            self.deposits.append(
                Deposit(id(world), result.accepted, result.auth_passed is not None, seconds, spent)
            )
            return result

        return patched(Bank, "verify_cheque", verify_cheque)


@dataclass
class Call:
    seed: int
    trials: int
    wall: float  # raw seconds
    stats: object
    deposits: list
    scale: float = 1.0  # multiplies raw seconds into reference seconds

    def deposit_deciles(self) -> list[float]:
        """Deciles of the call's deposits that reached the swap tests, in raw ms."""
        ms = [d.seconds * 1e3 for d in self.deposits if d.reached_swap_tests]
        return statistics.quantiles(ms, n=10) if len(ms) > 1 else [math.nan] * 9

    @property
    def fingerprint(self) -> str:
        doc = json.dumps(self.stats.to_json(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    def failed_trials(self, workload: Workload) -> int:
        """Trials that break the workload's invariant."""
        k = workload.deposits_per_trial
        if len(self.deposits) != k * self.trials:
            return self.trials
        failed = 0
        for t in range(self.trials):
            ds = self.deposits[t * k:(t + 1) * k]
            ok = (
                len({d.world for d in ds}) == 1
                and sum(d.reached_swap_tests for d in ds) == 1
                and workload.trial_ok(ds)
            )
            failed += not ok
        return failed


def harness_call(workload: Workload, seed: int, k: int, recorder: DepositRecorder,
                 wrap=None) -> Call:
    run = wrap(workload.run) if wrap else workload.run
    first = len(recorder.deposits)
    start = time.perf_counter()
    stats = run(call_seed(seed, k), workload.call_trials)
    wall = time.perf_counter() - start
    return Call(call_seed(seed, k), workload.call_trials, wall, stats, recorder.deposits[first:])


def call_seed(seed: int, k: int) -> int:
    return seed * 65536 + k


def warm_up(workload: Workload, seed: int) -> None:
    """One trial at a seed no timed call uses."""
    workload.run(call_seed(seed, WARM_UP_CALL), 1)


def within_4_sigma(calls: list[Call]) -> bool:
    """Pooled success rate of the calls against their analytic rates."""
    n = sum(c.trials for c in calls)
    observed = sum(c.stats.successes for c in calls) / n
    expected = sum(c.stats.analytic_rate * c.trials for c in calls) / n
    sigma = math.sqrt(sum((c.stats.analytic_sigma * c.trials) ** 2 for c in calls)) / n
    return within_sigma(observed, expected, sigma, z=4.0)


def trials_failed(workload: Workload, calls: list[Call]) -> int:
    if not within_4_sigma(calls):
        return sum(c.trials for c in calls)
    return sum(c.failed_trials(workload) for c in calls)


def trials_per_s(calls: list[Call]) -> float:
    return sum(c.trials for c in calls) / sum(c.wall * c.scale for c in calls)


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def probe_setup(name: str, seed: int, ref: SpeedReference) -> tuple[float, float]:
    """Raw seconds from spawning a fresh process to the end of its
    warm-up, and the speed scale of that interval."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    before = ref.sample()
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds = json.loads(proc.stdout.splitlines()[-1])["ready"] - start
    return seconds, speed_scale(before, ref.sample())


def timed_run(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    recorder = DepositRecorder(workload.check_ledger)
    calls: list[Call] = []
    with SpeedReference() as ref, recorder.installed():
        setup = [probe_setup(name, seed, ref) for _ in range(SETUP_PROBES)]
        warm_up(workload, seed)
        before = ref.sample()
        start = time.monotonic()
        while len(calls) < MIN_CALLS or time.monotonic() - start < seconds:
            call = harness_call(workload, seed, len(calls), recorder)
            after = ref.sample()
            call.scale = speed_scale(before, after)
            calls.append(call)
            before = after

    deciles = [c.deposit_deciles() for c in calls]

    def summary(scaled: bool) -> dict:
        scales = [c.scale if scaled else 1.0 for c in calls]
        return {
            "trials_per_s": statistics.median(c.trials / (c.wall * k) for c, k in zip(calls, scales)),
            "deposit_ms_p50": statistics.median(d[4] * k for d, k in zip(deciles, scales)),
            "deposit_ms_p90": statistics.median(d[8] * k for d, k in zip(deciles, scales)),
            "setup_s": statistics.median(t * (k if scaled else 1.0) for t, k in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    values = summary(scaled=True)
    return {
        "calls": calls,
        "trials_failed": trials_failed(workload, calls),
        "metrics": {m: (values[m], unit) for m, unit in END_TO_END},
        "extra": {
            "deposit_samples": sum(d.reached_swap_tests for c in calls for d in c.deposits),
            "raw": summary(scaled=False),
            "speed_scale_median": statistics.median(c.scale for c in calls),
        },
    }


def traced_run(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    recorder = DepositRecorder(workload.check_ledger)
    tracer = Tracer()
    with recorder.installed():
        warm_up(workload, seed)
        plain = [harness_call(workload, seed, k, recorder) for k in range(TRACE_CALLS)]
        with tracer.installed():
            traced = [
                harness_call(workload, seed, k, recorder, wrap=lambda f: tracer.wrap(HARNESS, f))
                for k in range(TRACE_CALLS)
            ]

    trials = sum(c.trials for c in traced)
    layers = tracer.layer_stats(trials)
    values = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        values[metric] = layers.get(layer, {}).get(stat, 0.0)
    values.update({
        "sim.merges_per_trial": tracer.merges / trials,
        "sim.peak_group_qubits": tracer.peak_group_qubits,
        "sim.amps_touched_per_trial": tracer.amps_touched / trials,
        "adversary.harness.self_ms_per_trial": layers[HARNESS]["self_ms_per_trial"],
        "trace.overhead_ratio": trials_per_s(traced) / trials_per_s(plain),
    })
    fingerprints_match = [c.fingerprint for c in plain] == [c.fingerprint for c in traced]
    failed = trials_failed(workload, plain) + trials_failed(workload, traced)
    if not fingerprints_match:
        failed = trials * 2
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{name}-{seed}.jsonl"
    tracer.write(spans_file)
    return {
        "calls": plain + traced,
        "trials_failed": failed,
        "metrics": {m: (values[m], unit) for m, unit in PER_LAYER.items()},
        "extra": {
            "fingerprints_match": fingerprints_match,
            "spans": len(tracer.spans),
            "spans_file": str(spans_file),
        },
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def machine_facts() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "qcheque": qcheque.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=_positive, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        warm_up(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    if args.trace:
        run = traced_run(args.workload, args.seed)
    else:
        run = timed_run(args.workload, args.seed, args.seconds)
    calls = run["calls"]
    attempted = sum(c.trials for c in calls)
    failed = run["trials_failed"]
    metrics = {m: {"value": v, "unit": u} for m, (v, u) in run["metrics"].items()}
    report = {
        "benchmark": "qcheque",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "calls": len(calls),
        "trials": attempted,
        "trials_failed": failed,
        "fingerprints": {str(c.seed): c.fingerprint for c in calls},
        **run["extra"],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
