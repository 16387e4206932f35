"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line (visible
under ``pytest -s``; under plain ``pytest -v`` the test name itself serves
as the line).  Statistical criteria use a 4 sigma band around the exact
expectation; algebraic identities use absolute tolerances of 1e-9 or
tighter.  Everything is seeded, so a red criterion is reproducible.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
from helpers import haar_random_unitary, state_of

from qcheque.adversary import clone_qubit, run_attack, run_honest
from qcheque.protocol import Bank, SchemeParams, encode_amount, sign_cheque
from qcheque.sim import BellOutcome, Owner, World, haar_random_qubit
from qcheque.stats import binomial_sigma, within_sigma
from qcheque.swaptest import swap_test
from qcheque.teleport import encode_qubit, prepare_ghz, recover_qubit

FAST = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=64, serial_bits=64)


def criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


# ----------------------------------------------------------------------


def test_criterion_01_completeness():
    start = time.monotonic()
    stats = run_honest(SchemeParams(), trials=1000, seed=20261)
    elapsed = time.monotonic() - start
    ok = stats.successes == 1000 and stats.empirical_rate == 1.0 and elapsed < 30.0
    criterion(1, "completeness", ok,
              f"rate={stats.empirical_rate} elapsed={elapsed:.1f}s")


def test_criterion_02_encode_recover_identity():
    world = World(seed=20262)
    rng = np.random.default_rng(20262)
    worst = 1.0
    for i in range(1000):
        amps = haar_random_qubit(rng)
        triple = prepare_ghz(world, i)
        payload = world.allocate(Owner.ALICE, amps)
        encode_qubit(world, payload, triple)
        recover_qubit(world, triple.bank_qubit, triple.cheque_qubit)
        got = state_of(world, [triple.cheque_qubit])
        worst = min(worst, abs(np.vdot(amps, got)) ** 2)
        world.discard(triple.cheque_qubit)
        world.discard(triple.bank_qubit)
    criterion(2, "encode-recover identity", worst >= 1.0 - 1e-10,
              f"worst fidelity={worst:.15f}")


def test_criterion_03_swap_test_statistics():
    trials = 10_000
    world = World(seed=20263)
    results = []
    for delta in (0.0, 0.5, 0.8, 1.0):
        other = (delta, math.sqrt(1.0 - delta * delta))
        passes = 0
        for _ in range(trials):
            qa = world.allocate(Owner.BANK)
            qb = world.allocate(Owner.BANK, other)
            passes += swap_test(world, [qa], [qb])
            world.discard(qa)
            world.discard(qb)
        expected = (1.0 + delta * delta) / 2.0
        rate = passes / trials
        results.append((delta, rate, expected,
                        within_sigma(rate, expected, binomial_sigma(expected, trials))))
    detail = " ".join(f"d={d}:{r:.4f}/{e:.4f}" for d, r, e, _ in results)
    criterion(3, "swap-test statistics", all(ok for *_, ok in results), detail)


def test_criterion_04_bell_outcome_uniformity():
    trials = 10_000
    world = World(seed=20264)
    counts = Counter()
    for i in range(trials):
        triple = prepare_ghz(world, i)
        payload = world.allocate(Owner.ALICE, (0.6, 0.8))
        counts[encode_qubit(world, payload, triple)] += 1
        world.discard(triple.cheque_qubit)
        world.discard(triple.bank_qubit)
    sigma = binomial_sigma(0.25, trials)
    ok = len(counts) == 4 and all(
        within_sigma(c / trials, 0.25, sigma) for c in counts.values()
    )
    detail = " ".join(f"{o.value}:{c / trials:.4f}" for o, c in sorted(
        counts.items(), key=lambda kv: kv[0].value))
    criterion(4, "bell-outcome uniformity", ok, detail)


def test_criterion_05_bank_marginals_by_outcome():
    alpha, beta = 0.6, 0.8
    want = {
        BellOutcome.PSI_PLUS: np.diag([alpha**2, beta**2]),
        BellOutcome.PSI_MINUS: np.diag([alpha**2, beta**2]),
        BellOutcome.PHI_PLUS: np.diag([beta**2, alpha**2]),
        BellOutcome.PHI_MINUS: np.diag([beta**2, alpha**2]),
    }
    worst = 0.0
    seed = 0
    found = {}
    while len(found) < 4:
        world = World(seed=seed)
        triple = prepare_ghz(world, 1)
        payload = world.allocate(Owner.ALICE, (alpha, beta))
        outcome = encode_qubit(world, payload, triple)
        if outcome not in found:
            found[outcome] = True
            rho = world.reduced_density([triple.bank_qubit])
            worst = max(worst, float(np.max(np.abs(rho - want[outcome]))))
        seed += 1
        assert seed < 500
    criterion(5, "bank marginals by outcome", worst < 1e-9, f"max delta={worst:.2e}")


def test_criterion_06_cloner_fidelity():
    # exact 5/6 overlap on both outputs for 100 random inputs
    world = World(seed=20266)
    rng = np.random.default_rng(20266)
    worst = 0.0
    for _ in range(100):
        amps = haar_random_qubit(rng)
        q = world.allocate(Owner.ADVERSARY, amps)
        result = clone_qubit(world, q)
        for clone in (q, result.copy):
            rho = world.reduced_density([clone])
            fidelity = float(np.real(np.conj(amps) @ rho @ amps))
            worst = max(worst, abs(fidelity - 5.0 / 6.0))
        for handle in (q, result.copy, result.machine):
            world.discard(handle)
    exact_ok = worst < 1e-9

    # clone against an ideal copy passes the swap test at 11/12
    trials = 10_000
    passes = 0
    for _ in range(trials):
        amps = haar_random_qubit(rng)
        q = world.allocate(Owner.ADVERSARY, amps)
        result = clone_qubit(world, q)
        ideal = world.allocate(Owner.ADVERSARY, amps)
        passes += swap_test(world, [result.copy], [ideal])
        for handle in (q, result.copy, result.machine, ideal):
            world.discard(handle)
    rate = passes / trials
    expected = 11.0 / 12.0
    stat_ok = within_sigma(rate, expected, binomial_sigma(expected, trials))
    criterion(6, "cloner fidelity", exact_ok and stat_ok,
              f"max |F-5/6|={worst:.2e} swap rate={rate:.4f}/{expected:.4f}")


def test_criterion_07_replay_never_accepted():
    stats = run_attack("replay", FAST, trials=10_000, seed=20267)
    ok = stats.successes == 0 and stats.extras["first_deposit_accepts"] == 10_000
    criterion(7, "replay never accepted", ok, f"successes={stats.successes}/10000")


def test_criterion_08_clone_double_spend_rates():
    trials = 2500
    rates = []
    rows = []
    ok = True
    for ghz_triples in (1, 2, 4, 8):
        params = SchemeParams(ghz_triples=ghz_triples, auth_qubits=3,
                              key_bits=64, serial_bits=64)
        stats = run_attack("clone-double-spend", params, trials=trials, seed=20268)
        agree = within_sigma(stats.empirical_rate, stats.analytic_rate,
                             stats.analytic_sigma)
        ok = ok and agree and stats.extras["original_second_accepts"] == 0
        rates.append(stats.empirical_rate)
        rows.append(f"l={ghz_triples}:{stats.empirical_rate:.4f}/{stats.analytic_rate:.4f}")
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    criterion(8, "clone-double-spend rates", ok and decreasing, " ".join(rows))


def test_criterion_09_tampered_amount_rate():
    params = SchemeParams(ghz_triples=4, auth_qubits=4, key_bits=64, serial_bits=64)
    stats = run_attack("tamper-amount", params, trials=10_000, seed=20269)
    ok = within_sigma(stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma)
    criterion(9, "tampered-amount rate", ok,
              f"rate={stats.empirical_rate:.4f} analytic={stats.analytic_rate:.4f}")


def test_criterion_10_no_signaling():
    world = World(seed=20270)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", FAST)
    cheque = sign_cheque(world, book, encode_amount(42))
    baseline = [world.reduced_density([q]) for q in record.bank_qubits]
    rng = np.random.default_rng(20270)
    worst = 0.0
    for i in range(100):
        target = cheque.amount_qubits[i % len(cheque.amount_qubits)]
        world.apply_gate(haar_random_unitary(rng), [target])
        for q, rho in zip(record.bank_qubits, baseline):
            now = world.reduced_density([q])
            worst = max(worst, float(np.max(np.abs(now - rho))))
    criterion(10, "no-signaling", worst < 1e-9, f"max drift={worst:.2e}")


def test_criterion_11_byte_determinism(tmp_path):
    base = [sys.executable, "-m", "qcheque"]
    fast = ["--l", "2", "--n", "2", "--key-bits", "64", "--serial-bits", "64"]

    def run(*args):
        proc = subprocess.run(base + list(args), capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    report_a = run("run-honest", *fast, "--trials", "25", "--seed", "31")
    report_b = run("run-honest", *fast, "--trials", "25", "--seed", "31")
    attack_a = run("attack", "--strategy", "tamper-amount", *fast,
                   "--trials", "25", "--seed", "32")
    attack_b = run("attack", "--strategy", "tamper-amount", *fast,
                   "--trials", "25", "--seed", "32")
    snap_a, snap_b = tmp_path / "a.json", tmp_path / "b.json"
    run("snapshot", *fast, "--seed", "33", "--snapshot", str(snap_a))
    run("snapshot", *fast, "--seed", "33", "--snapshot", str(snap_b))
    ok = (report_a == report_b and attack_a == attack_b
          and snap_a.read_bytes() == snap_b.read_bytes()
          and json.loads(report_a)["within_4_sigma"] is True)
    criterion(11, "byte determinism", ok)
