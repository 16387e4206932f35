"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They check that the traced counts repeat exactly, that tracing changes
no verdict, that the trace shows the cost structure each workload was
chosen for, and that broken invariants are counted as failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import WORKLOADS, Call, Deposit  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("calls_per_trial", "sim.merges_per_trial", "sim.peak_group_qubits",
         "sim.amps_touched_per_trial")


def _values(result):
    return {m: v for m, (v, _) in result["metrics"].items()}


@pytest.fixture(scope="module")
def one_call_traces(tmp_path_factory):
    """Traced runs of one harness call, spans written to a temporary directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "TRACE_CALLS", 1)
        mp.setattr(run, "OUT", tmp_path_factory.mktemp("spans"))
        yield


@pytest.fixture(scope="module")
def traced(one_call_traces):
    return {w: [_values(run.traced_run(w, seed=3)) for _ in range(2)] for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced_results(one_call_traces):
    return {w: run.traced_run(w, seed=4) for w in WORKLOADS}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_exactly(traced, workload):
    first, second = traced[workload]
    exact = [m for m in first if m.endswith(EXACT)]
    assert len(exact) > 20
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_changes_no_verdict(traced_results, workload):
    result = traced_results[workload]
    assert result["extra"]["fingerprints_match"]
    assert result["trials_failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_replay_is_dominated_by_keygen(traced):
    values = traced["replay-fast"][0]
    self_ms = {m: v for m, v in values.items() if m.endswith(".self_ms_per_trial")}
    assert max(self_ms, key=self_ms.get) == "signatures.generate_keypair.self_ms_per_trial"
    assert values["swaptest.swap_test.w2.calls_per_trial"] == 1


def test_honest_is_dominated_by_the_wide_swap_test(traced):
    values = traced["honest-l8n8"][0]
    # its callers' inclusive time contains it, so they are left out
    callers = ("protocol.verify_cheque", "swaptest.swap_test.ms_per_trial")
    inclusive = {m: v for m, v in values.items()
                 if m.endswith(".ms_per_trial") and not m.startswith(callers)}
    assert max(inclusive, key=inclusive.get) == "swaptest.swap_test.w8.ms_per_trial"
    assert values["sim.peak_group_qubits"] == 17


def test_clone_makes_many_small_gate_calls(traced):
    values = traced["clone-l8n3"][0]
    assert values["sim.apply_gate.calls_per_trial"] > 100
    assert values["adversary.clone_qubit.calls_per_trial"] >= 11


def _call(trials, *deposits, stats=None):
    """A harness call seen by the benchmark; deposits are (world,
    accepted, reached swap tests[, spent]) tuples."""
    deposits = [Deposit(d[0], d[1], d[2], 0.001, d[3] if len(d) > 3 else None) for d in deposits]
    return Call(0, trials, 1.0, stats, deposits)


def test_broken_invariants_count_as_failed_trials():
    honest, replay, clone = (WORKLOADS[w] for w in ("honest-l8n8", "replay-fast", "clone-l8n3"))
    assert _call(2, (1, True, True, True), (2, True, True, True)).failed_trials(honest) == 0
    assert _call(2, (1, True, True, True), (2, True, True, False)).failed_trials(honest) == 1
    assert _call(1, (1, True, True), (1, True, False)).failed_trials(replay) == 1
    assert _call(1, (1, False, True), (1, False, False)).failed_trials(replay) == 1
    assert _call(1, (1, False, True), (1, True, False)).failed_trials(clone) == 1
    assert _call(2, (1, False, True), (1, False, False)).failed_trials(clone) == 2


def test_a_rate_outside_four_sigma_fails_every_trial():
    class Stats:
        successes, analytic_rate, analytic_sigma = 20, 0.4, 0.02

    calls = [_call(100, stats=Stats())]
    assert not run.within_4_sigma(calls)
    assert run.trials_failed(WORKLOADS["clone-l8n3"], calls) == 100


def test_timed_run_reports_every_end_to_end_metric():
    result = run.timed_run("replay-fast", seed=5, seconds=0.1)
    assert result["trials_failed"] == 0
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    assert all(v > 0 for v, _ in result["metrics"].values())


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
